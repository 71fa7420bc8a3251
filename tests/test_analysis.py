import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import chi_square_pass, conditioned_screen_joint, csv_row, tensor
from qeraser import analysis, core
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
from qeraser.errors import InvalidCountError, NoMarkerError, ValidationError
from qeraser.marker import erasure_basis, which_path_basis
from qeraser.nchannel import default_config, final_state_marked
from qeraser.rng import SplitMix64
from qeraser.twoslit import default_grid, marked_state

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
        with pytest.raises(ValueError):
            joint_distribution(state, erasure_basis(0.0), MARKER_FIRST, system_labels=[1])

    def test_requires_marked_state_and_known_order(self):
        with pytest.raises(NoMarkerError):
            joint_distribution(core.make_state((2, 1), [1, 1]), which_path_basis(), MARKER_FIRST)
        with pytest.raises(ValueError):
            joint_distribution(ENTANGLED, which_path_basis(), "whenever")


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

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(2**64 + 3).next_uint64() == SplitMix64(3).next_uint64()


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
        chunk=st.sampled_from([1, 7, 1 << 16, "above count"]),
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
        with mock.patch.object(analysis, "_EVENT_CHUNK", size):
            chunks = list(event_log_chunks(*args))
        assert len(chunks) == 1 + -(-count // size)
        assert all(text.endswith("\n") for text in chunks)
        expected = oracle_log(*args)
        assert "".join(chunks) == expected
        assert reference_log(*args) == expected

    def test_chunk_boundaries_at_default_size(self):
        """Three chunks of 2^16 draws equal one batch of the same stream."""
        state, labels = SCENARIO_MODELS["nchannel"]
        count = 2 * analysis._EVENT_CHUNK + 5
        args = (state, erasure_basis(0.3), SYSTEM_FIRST, count, 9, "s", labels)
        streamed = "".join(event_log_chunks(*args))
        with mock.patch.object(analysis, "_EVENT_CHUNK", count + 1):
            assert streamed == reference_log(*args)
        assert streamed == oracle_log(*args)

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

    def test_zero_times_log_zero_convention(self):
        table = analysis.JointTable(("a", "b"), ("c", "d"), np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(table) == pytest.approx(1.0, abs=1e-12)

    def test_independent_table_has_zero_information(self):
        table = analysis.JointTable(("a", "b"), ("c", "d"), np.full((2, 2), 0.25))
        assert mutual_information(table) == 0.0
