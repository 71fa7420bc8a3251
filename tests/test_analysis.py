import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from lowered_simd import lowered_targets, run_with_simd_lowered
from oracles import chi_square_pass, conditioned_screen_joint, csv_row, tensor
from qeraser import _text, analysis, core
from qeraser.analysis import (
    MARKER_FIRST,
    ORDERS,
    SYSTEM_FIRST,
    EVENT_LOG_HEADER,
    epr_correlation_table,
    epr_state,
    event_log_chunks,
    joint_distribution,
    mutual_information,
    ordering_invariance_residual,
    sample_events,
    sample_outcomes,
)
from qeraser.errors import (
    DimensionMismatchError,
    InvalidCountError,
    InvariantError,
    NoMarkerError,
    ValidationError,
)
from qeraser.marker import erasure_basis, which_path_basis
from qeraser.nchannel import default_config, final_state_marked, random_config
from qeraser.rng import SplitMix64
from qeraser.twoslit import ScreenGeometry, build_grid, default_grid, marked_state

ENTANGLED = core.make_state((2, 2), [1, 0, 0, 1])


class TestJointDistribution:
    def test_which_path_table_is_perfectly_correlated(self):
        table = joint_distribution(ENTANGLED, which_path_basis(), MARKER_FIRST)
        assert np.max(np.abs(table.probabilities - np.diag([0.5, 0.5]))) < 1e-12
        assert table.col_labels == ("d1", "d2")

    def test_channel_eraser_table_pairs_parity_with_sign(self):
        state = final_state_marked(default_config(10))
        table = joint_distribution(state, erasure_basis(0.0), SYSTEM_FIRST)
        for j in range(1, 11):
            plus, minus = table.probabilities[j - 1]
            if j % 2 == 1:
                assert plus == pytest.approx(0.1, abs=1e-12)
                assert minus == pytest.approx(0.0, abs=1e-12)
            else:
                assert minus == pytest.approx(0.1, abs=1e-12)
                assert plus == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_marker_element_leaves_zero_column(self):
        """No amplitude on d2: marker_first skips that projection, system_first reads 0."""
        state = tensor(core.make_state((2, 1), [1, 1]), [1, 0])
        tables = [joint_distribution(state, which_path_basis(), order) for order in ORDERS]
        for table in tables:
            assert np.all(table.probabilities[:, 1] == 0.0)
            assert table.probabilities[:, 0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert ordering_invariance_residual(state, which_path_basis()) < 1e-15

    def test_orders_fill_the_same_table(self):
        state = final_state_marked(default_config(4))
        basis = erasure_basis(0.9)
        first = joint_distribution(state, basis, MARKER_FIRST)
        second = joint_distribution(state, basis, SYSTEM_FIRST)
        assert np.max(np.abs(first.probabilities - second.probabilities)) < 1e-12
        assert first.row_labels == second.row_labels

    @pytest.mark.parametrize(
        "order, patched", [(SYSTEM_FIRST, "project_marker"), (MARKER_FIRST, "condition_on_system")]
    )
    def test_orders_are_separate_arithmetic(self, monkeypatch, order, patched):
        """Each ordering builds its table without the other's projection."""

        def unavailable(*args, **kwargs):
            raise RuntimeError(f"{patched} must not be used by {order}")

        state = final_state_marked(default_config(6))
        expected = joint_distribution(state, erasure_basis(0.4), order).probabilities
        monkeypatch.setattr(core, patched, unavailable)
        table = joint_distribution(state, erasure_basis(0.4), order)
        assert np.array_equal(table.probabilities, expected)

    def test_system_labels(self):
        state = final_state_marked(default_config(4))
        table = joint_distribution(
            state, erasure_basis(0.0), MARKER_FIRST, system_labels=[1, 2, 3, 4]
        )
        assert table.row_labels == (1, 2, 3, 4)
        for labels in ((n for n in range(1, 5)), np.arange(1, 5)):
            table = joint_distribution(state, erasure_basis(0.0), MARKER_FIRST, system_labels=labels)
            assert isinstance(table.row_labels, tuple) and table.row_labels == (1, 2, 3, 4)
        with pytest.raises(DimensionMismatchError):
            joint_distribution(state, erasure_basis(0.0), MARKER_FIRST, system_labels=[1])

    def test_requires_marked_state_and_known_order(self):
        with pytest.raises(NoMarkerError):
            joint_distribution(core.make_state((2, 1), [1, 1]), which_path_basis(), MARKER_FIRST)
        with pytest.raises(ValueError):
            joint_distribution(ENTANGLED, which_path_basis(), "whenever")


def sweep_angles(count):
    """The erasure angles of basis_sweep(count)."""
    return np.linspace(-math.pi, math.pi, count, endpoint=False)


def basis_sweep(count):
    """`count` marker bases: erasure pairs at sweep_angles(count), of which
    the last is which-path once count > 1."""
    bases = [erasure_basis(float(theta)) for theta in sweep_angles(count)]
    if count > 1:
        bases[-1] = which_path_basis()
    return bases


CHANNEL_CONFIG = random_config(37, seed=11)
#: A random_config channel, a custom gaussian screen and the spin pair.
BATCH_STATES = {
    "channel": final_state_marked(CHANNEL_CONFIG),
    "screen": marked_state(
        build_grid(ScreenGeometry(2.0, 1.0, 1000.0, -1500.0, 1500.0, 4096), "gaussian", 700.0)
    ),
    "epr": epr_state(),
}


class TestJointDistributions:
    @pytest.mark.parametrize("count", [1, 2, 9, 33])
    @pytest.mark.parametrize("name", sorted(BATCH_STATES))
    @pytest.mark.parametrize("order", ORDERS)
    def test_each_table_equals_joint_distribution(self, order, name, count):
        state = BATCH_STATES[name]
        bases = basis_sweep(count)
        tables = analysis.joint_distributions(state, bases, order)
        assert len(tables) == count
        for basis, table in zip(bases, tables):
            single = joint_distribution(state, basis, order)
            assert np.array_equal(table.probabilities, single.probabilities)
            assert (table.row_labels, table.col_labels) == (single.row_labels, single.col_labels)
            assert table.row_labels == range(state.system_dim)
            assert not table.probabilities.flags.writeable
        if name == "channel":
            erasures = count - 1 if count > 1 else count
            for theta, table in zip(sweep_angles(count)[:erasures], tables):
                oracle = oracles.joint_channel_probs(
                    CHANNEL_CONFIG.thetas, CHANNEL_CONFIG.phis, float(theta)
                )
                assert np.max(np.abs(table.probabilities - np.array(oracle))) < 1e-12

    def test_system_first_conditions_once_per_call(self):
        state = BATCH_STATES["screen"]
        wrapper = mock.patch.object(core, "condition_on_system", wraps=core.condition_on_system)
        with wrapper as calls:
            for count in (0, 1, 9, 33):
                analysis.joint_distributions(state, basis_sweep(count), SYSTEM_FIRST)
            assert calls.call_count == 4
            # Separate one-basis calls condition once each.
            held = [joint_distribution(state, basis, SYSTEM_FIRST) for basis in basis_sweep(3)]
            assert calls.call_count == 7
        assert len(held) == 3

    @pytest.mark.parametrize("d2", [0.0, 1e-9])
    def test_unreached_element_leaves_zero_column(self, d2):
        """No amplitude on d2, or one whose projection falls below
        ZERO_PROBABILITY (1e-18 here): as joint_distribution skips that
        projection, its column is all zero."""
        state = core.make_state((3, 2), np.outer([1, 2, 3], [1, d2]).reshape(-1))
        bases = [erasure_basis(0.3), which_path_basis(), erasure_basis(1.0)]
        for order in ORDERS:
            tables = analysis.joint_distributions(state, bases, order)
            if order == MARKER_FIRST or d2 == 0.0:  # system_first keeps a 1e-18 weight
                assert np.all(tables[1].probabilities[:, 1] == 0.0)
            expected = [1 / 14, 4 / 14, 9 / 14]
            assert tables[1].probabilities[:, 0] == pytest.approx(expected, abs=1e-12)
            for basis, table in zip(bases, tables):
                single = joint_distribution(state, basis, order)
                assert np.array_equal(table.probabilities, single.probabilities)

    def test_stack_checks_each_table(self):
        """core._checked_stack checks every table's total, not the stack's."""
        halves = np.array([[[0.75, 0.75]], [[0.25, 0.25]]])
        with pytest.raises(InvariantError):
            core._checked_stack(halves, "joint table entries")
        stack = np.array([[[0.5, 0.5]], [[1.0 + 1e-13, -1e-13]]])
        checked = core._checked_stack(stack, "joint table entries")
        assert checked.tolist() == [[[0.5, 0.5]], [[1.0, 0.0]]]
        assert not checked.flags.writeable
        assert stack[1, 0, 0] == 1.0 + 1e-13  # the input is not changed

    @pytest.mark.parametrize("position", [0, 4, 9])
    def test_non_orthogonal_pair_raises_before_any_table(self, position):
        plus = erasure_basis(0.2).plus
        bases = basis_sweep(9)
        bases.insert(position, (plus, plus))
        with (
            mock.patch.object(core, "_project_markers", wraps=core._project_markers) as project,
            mock.patch.object(
                core, "condition_on_system", wraps=core.condition_on_system
            ) as condition,
        ):
            for order in ORDERS:
                with pytest.raises(ValidationError):
                    analysis.joint_distributions(BATCH_STATES["channel"], bases, order)
        assert project.call_count == condition.call_count == 0

    def test_marker_free_state_raises(self):
        bare = core.make_state((2, 1), [1, 1])
        for order in ORDERS:
            for count in (0, 2):
                with pytest.raises(NoMarkerError):
                    analysis.joint_distributions(bare, basis_sweep(count), order)

    def test_empty_bases_give_no_tables(self):
        """An empty sweep is no error: no tables, after the order and state checks."""
        for order in ORDERS:
            assert analysis.joint_distributions(ENTANGLED, [], order) == []
        with pytest.raises(ValidationError):
            analysis.joint_distributions(ENTANGLED, [], "whenever")


#: Row counts of the contraction tests: one row, where numpy's `@` takes a
#: dot product and not zgemv, a few rows, and one past 2^12 and 2^15 (a
#: squared norm over two blocks of core._NORM_BLOCK).
CONTRACTION_ROWS = [1, 2, 3, 4097, 2**15 + 1]


def random_marked_state(rows, seed):
    rng = np.random.default_rng(seed)
    amplitudes = rng.standard_normal(2 * rows) + 1j * rng.standard_normal(2 * rows)
    return core.make_state((rows, 2), amplitudes)


def marker_vectors(count, seed):
    """`count` random unit marker vectors as a (count, 2) array, then both
    elements of an erasure pair."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.concatenate([vectors, [m.vector for m in erasure_basis(0.3)]])


class TestContraction:
    @pytest.mark.parametrize("rows", CONTRACTION_ROWS)
    def test_project_marker_has_the_bits_of_blas(self, rows):
        """project_marker's residual is the BLAS form's partial
        (oracles.blas_marker_partial) divided by its exact norm, bit for bit.

        That the ufunc contraction rounds as BLAS zgemv does is a property
        of the host: of numpy's SIMD dispatch and of OpenBLAS's kernel. So
        this test holds at the host's own dispatch level only, and no test
        re-runs it with the dispatch lowered.
        """
        state = random_marked_state(rows, rows)
        table = state.amplitudes.reshape(rows, 2)
        for vector in marker_vectors(8, rows):
            residual, probability = core.project_marker(state, vector)
            partial = oracles.blas_marker_partial(table, vector)
            expected = core._squared_norm(partial)
            assert probability == expected
            partial /= math.sqrt(expected)
            assert residual.amplitudes.tobytes() == partial.tobytes()


class TestBatchInvariance:
    """Row k of a K-vector contraction, and table k of joint_distributions,
    equal the one-vector and one-basis calls bit for bit.

    The rows take the loops of the one-vector call, so this holds at every
    SIMD dispatch level; TestLoweredSimd re-runs this class with numpy's
    dispatch lowered.
    """

    @pytest.mark.parametrize("rows", CONTRACTION_ROWS)
    def test_rows_equal_one_vector_calls(self, rows):
        state = random_marked_state(rows, rows)
        vectors = marker_vectors(31, rows)
        projections = list(core._project_markers(state, vectors))
        assert len(projections) == 33
        for (row, probability), vector in zip(projections, vectors):
            residual, branch = core.project_marker(state, vector)
            assert row.tobytes() == residual.amplitudes.tobytes()
            assert probability == branch

    @pytest.mark.parametrize("rows", CONTRACTION_ROWS)
    def test_tables_equal_one_basis_calls(self, rows):
        state = random_marked_state(rows, rows)
        bases = basis_sweep(33)
        for order in ORDERS:
            for basis, table in zip(bases, analysis.joint_distributions(state, bases, order)):
                single = joint_distribution(state, basis, order)
                assert table.probabilities.tobytes() == single.probabilities.tobytes()


class TestLoweredSimd:
    """TestBatchInvariance passes with numpy's SIMD dispatch lowered
    (tests/lowered_simd.py). A host with nothing to lower skips."""

    @pytest.mark.skipif(not lowered_targets(), reason="numpy runs at its baseline on this host")
    def test_batch_invariance_with_simd_lowered(self):
        run_with_simd_lowered(__file__, "TestBatchInvariance")


class TestOrderingInvariance:
    def test_channel_presets(self):
        for n in (2, 4, 6, 10):
            state = final_state_marked(default_config(n))
            for theta in np.linspace(0.0, math.pi, 8, endpoint=False):
                assert ordering_invariance_residual(state, erasure_basis(float(theta))) < 1e-12

    def test_screen_preset(self):
        state = marked_state(default_grid())
        assert ordering_invariance_residual(state, erasure_basis(0.7)) < 1e-12

    def test_product_state_is_order_free(self):
        product = tensor(core.make_state((2, 1), [1, 1]), [1, 0])
        assert ordering_invariance_residual(product, erasure_basis(0.3)) < 1e-12


class TestSpinPair:
    def test_state_matches_relabeled_marked_state(self):
        assert np.array_equal(epr_state().amplitudes, ENTANGLED.amplitudes)

    def test_rebasis_to_x_eigenstates(self):
        # amplitudes <a|<b| psi in the x (x) x basis reproduce the same diagonal
        sq = 1.0 / math.sqrt(2.0)
        x_states = [np.array([sq, sq]), np.array([sq, -sq])]
        psi = epr_state().amplitudes.reshape(2, 2)
        rebased = np.array(
            [[x_states[a].conj() @ psi @ x_states[b].conj() for b in range(2)] for a in range(2)]
        )
        assert np.max(np.abs(rebased - np.diag([sq, sq]))) < 1e-12

    def test_reduced_spin_is_maximally_mixed(self):
        rho = core.reduced_marker_density(epr_state())
        assert np.max(np.abs(rho.matrix - np.diag([0.5, 0.5]))) < 1e-12

    def test_same_basis_tables_correlate(self):
        for pair in (("z", "z"), ("x", "x")):
            table = epr_correlation_table(*pair)
            assert np.max(np.abs(table.probabilities - np.diag([0.5, 0.5]))) < 1e-12
        assert mutual_information(epr_correlation_table("z", "z")) == pytest.approx(1.0, abs=1e-12)

    def test_crossed_basis_table_is_uniform_and_informationless(self):
        table = epr_correlation_table("z", "x")
        assert np.max(np.abs(table.probabilities - 0.25)) < 1e-12
        assert abs(mutual_information(table)) < 1e-12

    def test_x_conditioning_matches_erasure_conditioning(self):
        """Erasure conditioning on the marked state is x conditioning on the pair."""
        table_eraser = joint_distribution(ENTANGLED, erasure_basis(0.0), MARKER_FIRST)
        table_spin = epr_correlation_table("z", "x")
        assert np.max(np.abs(table_eraser.probabilities - table_spin.probabilities)) < 1e-12

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValidationError):
            epr_correlation_table("z", "y")


class TestSplitMix:
    def test_reference_vector_seed_zero(self):
        stream = SplitMix64(0)
        assert stream.next_uint64() == 0xE220A8397B1DCDAF
        assert stream.next_uint64() == 0x6E789E6AA1B965F4
        assert stream.next_uint64() == 0x06C45D188009454F

    def test_scalar_and_vector_paths_agree(self):
        scalars = oracles.splitmix64(987654321, 500)
        b = SplitMix64(987654321)
        chunks = np.concatenate([b.uint64s(123), b.uint64s(377)])
        assert scalars == [int(v) for v in chunks]
        a = SplitMix64(987654321)
        assert [a.next_uint64() for _ in range(500)] == scalars

    def test_floats_are_unit_interval(self):
        values = SplitMix64(5).floats(10000)
        assert values.min() >= 0.0 and values.max() < 1.0
        assert values.tolist() == oracles.splitmix64_floats(5, 10000)

    def test_seed_outside_the_rule_is_rejected(self):
        """Masked, truncated or read as 1, these seeds would alias another seed's stream."""
        for seed in (2**64 + 3, -1, 1.5, True):
            with pytest.raises(ValidationError, match="seed"):
                SplitMix64(seed)


class TestSampling:
    def setup_method(self):
        self.state = final_state_marked(default_config(10))
        self.basis = erasure_basis(0.0)
        self.labels = list(range(1, 11))

    def test_single_event_reproducible(self):
        one = sample_events(self.state, self.basis, SYSTEM_FIRST, 1, 7, "s", self.labels)
        two = sample_events(self.state, self.basis, SYSTEM_FIRST, 1, 7, "s", self.labels)
        assert one == two
        record = one[0]
        assert record.event_index == 0 and record.seed == 7
        assert record.order == SYSTEM_FIRST

    def test_identical_seeds_identical_streams(self):
        a = sample_events(self.state, self.basis, MARKER_FIRST, 2000, 11, "s", self.labels)
        b = sample_events(self.state, self.basis, MARKER_FIRST, 2000, 11, "s", self.labels)
        c = sample_events(self.state, self.basis, MARKER_FIRST, 2000, 12, "s", self.labels)
        assert a == b
        assert a != c

    def test_events_respect_parity_correlation(self):
        events = sample_events(self.state, self.basis, SYSTEM_FIRST, 5000, 3, "s", self.labels)
        for record in events:
            assert record.marker_outcome == (0 if record.system_outcome % 2 == 1 else 1)

    def test_empirical_table_within_binomial_bounds(self):
        table = joint_distribution(self.state, self.basis, SYSTEM_FIRST, self.labels)
        count = 100_000
        cells = sample_outcomes(table, count, 21)
        observed = np.bincount(cells, minlength=20).astype(float)
        expected = table.probabilities.reshape(-1) * count
        sigma = np.sqrt(expected * (1 - expected / count))
        live = expected > 0
        assert np.all(np.abs(observed[live] - expected[live]) <= 4 * sigma[live])
        assert np.all(observed[~live] == 0)

    def test_empirical_screen_pattern_matches_closed_form(self):
        grid = default_grid()
        state = marked_state(grid)
        table = joint_distribution(state, erasure_basis(0.0), SYSTEM_FIRST)
        count = 1_000_000
        cells = sample_outcomes(table, count, 13)
        plus_cells = cells[cells % 2 == 0] // 2
        observed = np.bincount(plus_cells, minlength=grid.bins).astype(float)
        geo = grid.geometry
        joint = np.array(
            conditioned_screen_joint(
                grid.positions, grid.envelope, grid.dx,
                geo.d, geo.wavelength, geo.L, 0.0, +1,
            )
        )
        exact = joint / joint.sum()
        empirical = observed / observed.sum()
        events_per_live_bin = observed.sum() / np.count_nonzero(exact > 1e-15)
        tolerance = 5.0 / math.sqrt(events_per_live_bin)
        assert np.max(np.abs(empirical - exact)) < tolerance * np.max(exact)

    def test_sampler_meta_chi_square(self):
        table = joint_distribution(self.state, self.basis, SYSTEM_FIRST, self.labels)
        flat = table.probabilities.reshape(-1)
        passes = 0
        for seed in range(1, 21):
            cells = sample_outcomes(table, 50_000, seed)
            observed = np.bincount(cells, minlength=flat.size)
            passes += chi_square_pass(flat, observed)
        assert passes >= 19

    @pytest.mark.parametrize("offset", [0, 2**70])
    def test_records_match_per_cell_reference(self, offset):
        """Each record is (cell // cols -> label, cell % cols) of the same draw.

        The 2**70 offset gives labels beyond int64, which must be logged exactly.
        """
        labels = [label + offset for label in self.labels]
        events = sample_events(self.state, self.basis, MARKER_FIRST, 3000, 5, "s", labels)
        table = joint_distribution(self.state, self.basis, MARKER_FIRST, labels)
        reference = []
        for index, cell in enumerate(sample_outcomes(table, 3000, 5)):
            row, col = divmod(int(cell), len(table.col_labels))
            reference.append(("s", index, labels[row], col, MARKER_FIRST, 5))
        records = [
            (e.scenario_id, e.event_index, e.system_outcome, e.marker_outcome, e.order, e.seed)
            for e in events
        ]
        assert records == reference
        assert all(type(value) in (int, str) for record in records for value in record)
        assert [csv_row(e) for e in events] == [",".join(map(str, r)) for r in reference]

    def test_invalid_count(self):
        with pytest.raises(InvalidCountError):
            sample_events(self.state, self.basis, SYSTEM_FIRST, 0, 1, "s", self.labels)

    def test_count_above_size_limit(self):
        table = joint_distribution(self.state, self.basis, SYSTEM_FIRST)
        with pytest.raises(InvalidCountError):
            sample_outcomes(table, core.MAX_SIZE + 1, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64 + 7, 2.5])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            sample_events(self.state, self.basis, SYSTEM_FIRST, 1, seed, "s", self.labels)
        table = joint_distribution(self.state, self.basis, SYSTEM_FIRST)
        with pytest.raises(ValidationError, match="seed"):
            sample_outcomes(table, 8, seed)

    def test_scenario_id_validation(self):
        """Printable, and no field separator or path separator: it names the log file."""
        for bad in ("a,b", "a\nb", "a\rb", "a\tb", "a\0b", "x/../../escaped", "a\\b"):
            with pytest.raises(ValidationError, match="scenario_id"):
                sample_events(self.state, self.basis, SYSTEM_FIRST, 1, 1, bad, self.labels)
        events = sample_events(self.state, self.basis, SYSTEM_FIRST, 1, 1, "run 2.ü", self.labels)
        assert events[0].scenario_id == "run 2.ü"

    def test_labels_must_be_integers(self):
        with pytest.raises(ValidationError):
            sample_events(
                self.state, self.basis, SYSTEM_FIRST, 1, 1, "s",
                [str(j) for j in self.labels],
            )

    def test_event_log_row_format(self):
        record = analysis.EventRecord("demo", 4, 7, 1, SYSTEM_FIRST, 99)
        assert csv_row(record) == "demo,4,7,1,system_first,99"
        assert EVENT_LOG_HEADER.split(",") == [
            "scenario_id", "event_index", "system_outcome",
            "marker_outcome", "order", "seed",
        ]


def column_table(probabilities) -> analysis.JointTable:
    """A one-column joint table whose cells are `probabilities`, in order."""
    cells = np.reshape(probabilities, (-1, 1))
    return analysis.JointTable(range(len(cells)), ("m",), cells)


@st.composite
def dyadic_probabilities(draw):
    """Multiples of 2^-k: every CDF entry lies on a bucket edge j / 2^k.

    Repeated cuts, and cuts at 0 or 1, give zero-probability cells; no cut
    gives the one-cell table.
    """
    k = draw(st.integers(0, 10))
    cuts = sorted(draw(st.lists(st.integers(0, 2**k), max_size=40)))
    points = [0, *cuts, 2**k]
    return [(b - a) / 2**k for a, b in zip(points, points[1:])]


weighted_probabilities = st.lists(
    st.just(0.0) | st.floats(1e-9, 1.0), min_size=1, max_size=60
).filter(any).map(lambda w: (np.array(w) / sum(w)).tolist())

#: Counts at and either side of 2^k, where the guide table's size steps.
counts_near_powers_of_two = st.integers(0, 12).flatmap(
    lambda k: st.integers(max(1, 2**k - 2), 2**k + 2)
)


class TestGuideTableDraws:
    """sample_outcomes against a scalar bisection over the same stream."""

    @given(
        probabilities=dyadic_probabilities() | weighted_probabilities,
        count=counts_near_powers_of_two,
        seed=st.integers(0, 2**64 - 1),
    )
    def test_draws_equal_scalar_bisection(self, probabilities, count, seed):
        table = column_table(probabilities)
        expected = oracles.sample_outcomes(table.probabilities.reshape(-1).tolist(), count, seed)
        assert sample_outcomes(table, count, seed).tolist() == expected

    @pytest.mark.parametrize("count", [1, 2, 3, 2**15 - 1, 2**15, 2**17])
    def test_draws_over_more_than_2_16_cells(self, count):
        """A table wider than the largest guide table, with a long zero run."""
        weights = np.random.default_rng(3).random(2**16 + 3) ** 8
        weights[1000:40000] = 0.0
        table = column_table(weights / weights.sum())
        expected = oracles.sample_outcomes(table.probabilities.reshape(-1).tolist(), count, 17)
        assert sample_outcomes(table, count, 17).tolist() == expected

    @pytest.mark.parametrize("count", [2**10 - 1, 2**10, 2**15 + 3])
    def test_draws_over_a_screen_either_side_of_the_guide_table(self, count):
        """The 1024 cells of the default screen, with and without a guide
        table: 1023 draws get 2^9 buckets, fewer than the cells, and none."""
        table = joint_distribution(marked_state(default_grid()), erasure_basis(0.4), SYSTEM_FIRST)
        expected = oracles.sample_outcomes(table.probabilities.reshape(-1).tolist(), count, 5)
        assert sample_outcomes(table, count, 5).tolist() == expected


#: (state, system labels) of the three sampled scenarios, as the CLI builds them.
SCENARIO_MODELS = {
    "nchannel": (final_state_marked(default_config(10)), list(range(1, 11))),
    "twoslit": (marked_state(default_grid()), list(range(default_grid().bins))),
    "epr": (epr_state(), [0, 1]),
}


def reference_log(*args) -> str:
    """The event log as EVENT_LOG_HEADER and the oracle csv_row of every record."""
    events = sample_events(*args)
    return EVENT_LOG_HEADER + "\n" + "\n".join(map(csv_row, events)) + "\n"


def oracle_log(state, basis, order, count, seed, scenario_id, labels) -> str:
    """The event log of oracles.event_log, drawn from the same joint table."""
    table = joint_distribution(state, basis, order, labels)
    return oracles.event_log(table, count, seed, scenario_id, order)


class TestEventLogChunks:
    @given(
        scenario=st.sampled_from(sorted(SCENARIO_MODELS)),
        order=st.sampled_from(ORDERS),
        basis=st.sampled_from(["whichpath", "erasure"]),
        theta=st.floats(0.0, math.pi),
        count=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
        chunk=st.sampled_from([1, 7, 1 << 16, _text.CHUNK, "above count"]),
        offset=st.sampled_from([0, 2**70]),
        scenario_id=st.sampled_from(["s", "run 2.ü", "x{}", "100%", "%s%%d"]),
    )
    def test_bytes_equal_record_rows_for_every_chunk_size(
        self, scenario, order, basis, theta, count, seed, chunk, offset, scenario_id
    ):
        state, labels = SCENARIO_MODELS[scenario]
        marker = which_path_basis() if basis == "whichpath" else erasure_basis(theta)
        args = (state, marker, order, count, seed, scenario_id, [j + offset for j in labels])
        size = count + 1 if chunk == "above count" else chunk
        with mock.patch.object(_text, "CHUNK", size):
            chunks = list(event_log_chunks(*args))
        assert len(chunks) == 1 + -(-count // size)
        assert all(text.endswith("\n") for text in chunks)
        expected = oracle_log(*args)
        assert "".join(chunks) == expected
        assert reference_log(*args) == expected

    @pytest.mark.parametrize(
        "scenario, count",
        [("nchannel", 2 * _text.CHUNK + 5), ("nchannel", 100_003), ("epr", 1_000_001)],
    )
    def test_chunk_boundaries_at_default_size(self, scenario, count):
        """Chunks of the shipped size equal one batch of the same stream.

        Their runs of indices cross 10^4 inside a chunk, and 10^5 and 10^6.
        """
        state, labels = SCENARIO_MODELS[scenario]
        args = (state, erasure_basis(0.3), SYSTEM_FIRST, count, 9, "s", labels)
        streamed = "".join(event_log_chunks(*args))
        with mock.patch.object(_text, "CHUNK", count + 1):
            assert streamed == reference_log(*args)
        assert streamed == oracle_log(*args)

    @pytest.mark.parametrize("scenario", ["nchannel", "epr"])
    @pytest.mark.parametrize("count", [10**4, 10**4 + 1, 10**5 + 1])
    def test_run_boundaries_before_on_and_after_a_chunk_boundary(self, scenario, count):
        """The 10^4 runs of index digits against chunks of 10^4 - 1, 10^4
        and 10^4 + 1 rows, where the last chunk is often shorter than the
        template the rows are laid out in: no row of an earlier chunk may
        leak into a later one. nchannel's labels 1..10 have two widths,
        so its cells are padded; epr's 0 and 1 need no padding."""
        state, labels = SCENARIO_MODELS[scenario]
        args = (state, erasure_basis(0.6), MARKER_FIRST, count, 21, "s", labels)
        expected = oracle_log(*args)
        for size in (10**4 - 1, 10**4, 10**4 + 1):
            with mock.patch.object(_text, "CHUNK", size):
                chunks = list(event_log_chunks(*args))
            assert [text.count("\n") for text in chunks[1:]] == [
                min(size, count - start) for start in range(0, count, size)
            ]
            assert "".join(chunks) == expected, size

    @pytest.mark.parametrize(
        "labels",
        [
            [-j for j in range(1, 11)],
            [10**j for j in range(10)],
            [2**63 + j for j in range(9)] + [-(2**64)],
            [-(10**30), 0, 5, -5, 99, 10**25, 7, -123456, 2**63 - 1, -(2**63)],
        ],
        ids=["negative", "mixed_width", "beyond_int64", "all_kinds"],
    )
    def test_labels_of_any_sign_and_width(self, labels):
        """Negative, mixed-width and beyond-int64 labels under a multi-byte
        UTF-8 scenario_id, with a last chunk of one row."""
        state, _ = SCENARIO_MODELS["nchannel"]
        args = (state, erasure_basis(1.1), SYSTEM_FIRST, 2 * 10**4 + 1, 3, "π-ü€", labels)
        with mock.patch.object(_text, "CHUNK", 10**4):
            chunks = list(event_log_chunks(*args))
        assert chunks[-1].count("\n") == 1
        assert "".join(chunks) == oracle_log(*args)

    @pytest.mark.parametrize(
        "count, seed, scenario_id, labels, error",
        [
            (0, 1, "s", None, InvalidCountError),
            (core.MAX_SIZE + 1, 1, "s", None, InvalidCountError),
            (1, 2**64, "s", None, ValidationError),
            (1, 1, "a,b", None, ValidationError),
            (1, 1, "s", [str(j) for j in range(10)], ValidationError),
        ],
    )
    def test_every_check_is_made_before_the_iterator_exists(
        self, count, seed, scenario_id, labels, error
    ):
        state, _ = SCENARIO_MODELS["nchannel"]
        with pytest.raises(error):
            event_log_chunks(
                state, erasure_basis(0.0), SYSTEM_FIRST, count, seed, scenario_id, labels
            )


def loop_mutual_information(probs):
    """Cell-by-cell reference sum, with 0 log 0 = 0."""
    row, col = probs.sum(axis=1), probs.sum(axis=0)
    info = 0.0
    for i in range(probs.shape[0]):
        for j in range(probs.shape[1]):
            if probs[i, j] > 0.0:
                info += probs[i, j] * math.log2(probs[i, j] / (row[i] * col[j]))
    return info


class TestMutualInformation:
    def test_matches_cell_loop(self):
        rng = np.random.default_rng(11)
        for rows in (1, 2, 7, 300):
            probs = rng.random((rows, 2)) * (rng.random((rows, 2)) > 0.3)
            probs[0, 0] += 0.1
            table = analysis.JointTable(tuple(range(rows)), ("c", "d"), probs / probs.sum())
            expected = loop_mutual_information(table.probabilities)
            assert mutual_information(table) == pytest.approx(expected, abs=1e-12)

    def test_matches_cell_loop_at_screen_size(self):
        """32768 rows, zero cells in each column and one all-zero row."""
        rng = np.random.default_rng(16)
        probs = rng.random((32768, 2))
        probs[rng.random((32768, 2)) < 0.2] = 0.0
        probs[12345] = 0.0
        assert np.all(np.any(probs == 0.0, axis=0))
        table = analysis.JointTable(range(32768), ("c", "d"), probs / probs.sum())
        expected = loop_mutual_information(table.probabilities)
        assert mutual_information(table) == pytest.approx(expected, abs=1e-12)

    def test_zero_times_log_zero_convention(self):
        table = analysis.JointTable(("a", "b"), ("c", "d"), np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(table) == pytest.approx(1.0, abs=1e-12)

    def test_independent_table_has_zero_information(self):
        table = analysis.JointTable(("a", "b"), ("c", "d"), np.full((2, 2), 0.25))
        assert mutual_information(table) == 0.0
