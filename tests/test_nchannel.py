import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bare_channel_probs, joint_channel_probs, marked_channel_probs, tensor
from qeraser import analysis, core, marker, nchannel
from qeraser.errors import (
    IndexOutOfRangeError,
    InvalidConfigError,
    LengthMismatchError,
    NoMarkerError,
    OddChannelCountError,
    ValidationError,
    ZeroProbabilityError,
)
from qeraser.marker import erasure_basis, which_path_basis
from qeraser.nchannel import (
    PhaseConfig,
    conditioned_distribution,
    default_config,
    delayed_marker_state,
    detector_probabilities,
    final_state_bare,
    final_state_marked,
    random_config,
    validate_config,
)
from qeraser.rng import SplitMix64

SQ = 1.0 / math.sqrt(2.0)


def dft_config(n):
    """Valid custom configuration: path-B phases are the n-th roots of unity."""
    return PhaseConfig(n, np.zeros(n), 2 * math.pi * np.arange(1, n + 1) / n)


class TestConfig:
    def test_default_config_phases(self):
        config = default_config(10)
        assert np.array_equal(config.thetas, np.zeros(10))
        assert np.array_equal(config.phis[::2], np.zeros(5))
        assert np.array_equal(config.phis[1::2], np.full(5, math.pi))

    def test_mach_zehnder_is_n_two(self):
        config = default_config(2)
        assert config.n == 2 and config.phis[1] == math.pi

    def test_odd_channel_count_rejected(self):
        with pytest.raises(OddChannelCountError):
            default_config(3)
        with pytest.raises(OddChannelCountError):
            default_config(0)

    def test_default_residual_is_zero(self):
        assert validate_config(np.zeros(10), default_config(10).phis) < 1e-15

    def test_dft_residual_is_zero(self):
        config = dft_config(6)
        # direct summation of the sixth roots of unity
        total = sum(np.exp(1j * p) for p in config.phis)
        assert abs(total) < 1e-12
        assert validate_config(config.thetas, config.phis) < 1e-12

    def test_identical_images_rejected(self):
        assert validate_config(np.zeros(4), np.zeros(4)) == pytest.approx(1.0)
        with pytest.raises(InvalidConfigError):
            PhaseConfig(4, np.zeros(4), np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            validate_config([0.0, 0.0], [0.0])
        with pytest.raises(LengthMismatchError):
            PhaseConfig(3, np.zeros(3), np.zeros(2))

    def test_channel_count_above_size_limit(self):
        with pytest.raises(InvalidConfigError):
            default_config(core.MAX_SIZE + 2)
        with pytest.raises(InvalidConfigError):
            random_config(core.MAX_SIZE + 1, seed=1)

    def test_odd_n_allowed_for_custom_configs(self):
        config = dft_config(3)
        assert config.n == 3

    def test_random_config_is_deterministic_and_valid(self):
        for n in range(2, 13):
            first = random_config(n, seed=100 + n)
            second = random_config(n, seed=100 + n)
            assert np.array_equal(first.thetas, second.thetas)
            assert np.array_equal(first.phis, second.phis)
            assert validate_config(first.thetas, first.phis) < 1e-12
        other = random_config(6, seed=1)
        assert not np.array_equal(other.phis, random_config(6, seed=2).phis)

    @pytest.mark.parametrize("seed", [-1, 2**64 + 1, 1.5])
    def test_random_config_rejects_aliased_seeds(self, seed):
        """Masked or truncated, these would reproduce another seed's configuration."""
        with pytest.raises(ValidationError, match="seed"):
            random_config(6, seed)

    @staticmethod
    def counted_random_config(n, seed):
        """random_config(n, seed) and the number of uniforms it drew."""
        drawn = []
        floats = SplitMix64.floats

        def counted(stream, count):
            drawn.append(count)
            return floats(stream, count)

        with mock.patch.object(SplitMix64, "floats", counted):
            config = random_config(n, seed)
        return config, sum(drawn)

    @given(n=st.integers(2, 200), seed=st.integers(0, 2**64 - 1))
    @settings(deadline=None)
    def test_random_config_draws_once_and_is_unitary(self, n, seed):
        """2n - 2 uniforms, whatever the seed: the tail is repaired, never resampled."""
        config, drawn = self.counted_random_config(n, seed)
        assert drawn == 2 * n - 2
        assert validate_config(config.thetas, config.phis) < core.UNITARITY_TOL

    def test_random_config_at_1e5_channels(self):
        config, drawn = self.counted_random_config(100_000, 12345)
        assert drawn == 2 * 100_000 - 2
        assert validate_config(config.thetas, config.phis) < core.UNITARITY_TOL


class TestBareState:
    def test_bright_dark_channels(self):
        probs = detector_probabilities(final_state_bare(default_config(10))).probabilities
        amp = math.sqrt(2.0 / 10.0)
        for j in range(1, 11):
            expected = amp**2 if j % 2 == 1 else 0.0
            assert probs[j - 1] == pytest.approx(expected, abs=1e-12)

    def test_mach_zehnder_bright_port(self):
        probs = detector_probabilities(final_state_bare(default_config(2))).probabilities
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert probs[1] == pytest.approx(0.0, abs=1e-12)

    def test_dft_config_against_closed_form(self):
        config = dft_config(6)
        probs = detector_probabilities(final_state_bare(config)).probabilities
        for j in range(6):
            expected = (1.0 + math.cos(config.phis[j])) / 6.0
            assert probs[j] == pytest.approx(expected, abs=1e-12)


class TestMarkedState:
    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_marker_washes_interference(self, n):
        probs = detector_probabilities(final_state_marked(default_config(n))).probabilities
        assert np.max(np.abs(probs - 1.0 / n)) < 1e-12

    def test_reduced_marker_is_maximally_mixed(self):
        for config in (default_config(4), dft_config(5), random_config(8, 3)):
            rho = core.reduced_marker_density(final_state_marked(config))
            assert np.max(np.abs(rho.matrix - np.diag([0.5, 0.5]))) < 1e-12


class TestConditioning:
    def test_dplus_recovers_odd_detectors(self):
        state = final_state_marked(default_config(10))
        probs = conditioned_distribution(state, erasure_basis(0.0).plus).probabilities
        expected = np.array([0.2 if j % 2 == 1 else 0.0 for j in range(1, 11)])
        assert np.max(np.abs(probs - expected)) < 1e-12

    def test_dminus_recovers_even_detectors(self):
        state = final_state_marked(default_config(10))
        probs = conditioned_distribution(state, erasure_basis(0.0).minus).probabilities
        expected = np.array([0.0 if j % 2 == 1 else 0.2 for j in range(1, 11)])
        assert np.max(np.abs(probs - expected)) < 1e-12

    def test_which_path_condition_shows_no_interference(self):
        state = final_state_marked(default_config(10))
        d1, _ = which_path_basis()
        probs = conditioned_distribution(state, d1).probabilities
        assert np.max(np.abs(probs - 0.1)) < 1e-12

    def test_condition_carries_label(self):
        state = final_state_marked(default_config(4))
        dist = conditioned_distribution(state, erasure_basis(0.25).plus)
        assert dist.condition == "dplus[theta=0.25]"

    def test_bare_state_cannot_be_conditioned(self):
        with pytest.raises(NoMarkerError):
            conditioned_distribution(final_state_bare(default_config(4)), [1, 0])

    def test_zero_probability_condition(self):
        product = tensor(core.make_state((2, 1), [1, 1]), [1, 0])
        with pytest.raises(ZeroProbabilityError):
            conditioned_distribution(product, which_path_basis()[1])

    def test_complementary_branches_rebuild_uniform(self):
        """Both erasure branches, probability weighted, sum to no interference."""
        for n in (2, 4, 6, 10):
            state = final_state_marked(default_config(n))
            for theta in np.linspace(0.0, math.pi, 32, endpoint=False):
                basis = erasure_basis(float(theta))
                plus, p_plus = core.project_marker(state, basis.plus.vector)
                minus, p_minus = core.project_marker(state, basis.minus.vector)
                mixed = (
                    p_plus * plus.system_probabilities()
                    + p_minus * minus.system_probabilities()
                )
                assert np.max(np.abs(mixed - 1.0 / n)) < 1e-12


class TestDelayedMode:
    def test_odd_detector_throws_marker_to_dplus(self):
        state = final_state_marked(default_config(10))
        result = delayed_marker_state(state, 7)
        assert result.purity == pytest.approx(1.0, abs=1e-12)
        assert result.fidelity_dplus == pytest.approx(1.0, abs=1e-12)
        assert result.fidelity_dminus == pytest.approx(0.0, abs=1e-12)

    def test_even_detector_throws_marker_to_dminus(self):
        state = final_state_marked(default_config(10))
        result = delayed_marker_state(state, 4)
        assert result.fidelity_dminus == pytest.approx(1.0, abs=1e-12)
        assert result.fidelity_dplus == pytest.approx(0.0, abs=1e-12)

    def test_every_firing_detector_leaves_definite_marker(self):
        for config in (default_config(6), dft_config(7), random_config(9, 17)):
            state = final_state_marked(config)
            for j in range(1, config.n + 1):
                result = delayed_marker_state(state, j)
                assert abs(result.purity - 1.0) < 1e-12

    def test_dft_conditional_matches_phase_prediction(self):
        config = dft_config(6)
        state = final_state_marked(config)
        for j in range(1, 7):
            result = delayed_marker_state(state, j)
            expected = np.array(
                [np.exp(1j * config.thetas[j - 1]), np.exp(1j * config.phis[j - 1])]
            ) * SQ
            assert np.max(np.abs(result.marker_state.vector - expected)) < 1e-12
            # fidelity against plus(theta) peaks at theta = (theta_j - phi_j) / 2
            predicted = (config.thetas[j - 1] - config.phis[j - 1]) / 2.0
            direct = erasure_basis(predicted).plus.squared_overlap(result.marker_state)
            assert direct == pytest.approx(1.0, abs=1e-12)
            thetas = np.linspace(predicted - math.pi / 2, predicted + math.pi / 2, 181)
            fidelities = [
                erasure_basis(float(t)).plus.squared_overlap(result.marker_state)
                for t in thetas
            ]
            best = thetas[int(np.argmax(fidelities))]
            assert abs(best - predicted) <= thetas[1] - thetas[0]

    def test_matches_rank_one_density_operator(self):
        state = final_state_marked(random_config(12, 3))
        plus, minus = erasure_basis(0.0)
        for j in range(1, 13):
            result = delayed_marker_state(state, j)
            vec = result.marker_state.vector
            rho = core.DensityOperator(np.outer(vec, vec.conj()))
            assert result.purity == pytest.approx(core.purity(rho), abs=1e-12)
            assert result.fidelity_dplus == pytest.approx(
                core.fidelity_pure(rho, plus.vector), abs=1e-12
            )
            assert result.fidelity_dminus == pytest.approx(
                core.fidelity_pure(rho, minus.vector), abs=1e-12
            )

    def test_erasure_pair_is_not_rebuilt_per_detector(self):
        state = final_state_marked(random_config(12, 3))
        plus, minus = erasure_basis(0.0)
        calls = []

        def counting(theta):
            calls.append(theta)
            return erasure_basis(theta)

        with mock.patch.object(nchannel, "erasure_basis", counting), \
                mock.patch.object(marker, "erasure_basis", counting):
            results = [delayed_marker_state(state, j) for j in range(1, 13)]
        assert calls == []
        for j, result in enumerate(results, 1):
            conditional, _ = core.project_system(state, j - 1)
            assert result.fidelity_dplus == core.overlap_fidelity(conditional, plus.vector)
            assert result.fidelity_dminus == core.overlap_fidelity(conditional, minus.vector)

    def test_detector_index_is_one_based(self):
        state = final_state_marked(default_config(4))
        with pytest.raises(IndexOutOfRangeError):
            delayed_marker_state(state, 0)
        with pytest.raises(IndexOutOfRangeError):
            delayed_marker_state(state, 5)

    def test_dark_detector_cannot_condition_the_marker(self):
        # a marked state whose second detector never fires
        dark = core.make_state((2, 2), [1, 1, 0, 0])
        with pytest.raises(ZeroProbabilityError):
            delayed_marker_state(dark, 2)


class TestScalarDelayedPath:
    """delayed_marker_state reads one row in Python floats, as the kernel's row."""

    def test_bare_state_has_no_marker(self):
        with pytest.raises(NoMarkerError):
            delayed_marker_state(final_state_bare(default_config(10)), 1)

    def test_dark_detector_raises(self):
        # Detector 2 never fires: its two amplitudes are zero.
        state = core.make_state((3, 2), [1, 1j, 0, 0, 0.5, -0.5])
        with pytest.raises(ZeroProbabilityError):
            delayed_marker_state(state, 2)

    @pytest.mark.parametrize(
        "state",
        [
            final_state_marked(default_config(10)),
            core.make_state((4, 2), [0.3, -0.2j, 0, 0, -1e-3, 0.7 + 0.1j, 0, -0.4]),
        ],
        ids=["default_config(10)", "dark-row"],
    )
    def test_bits_equal_kernel_rows(self, state):
        weights, conditionals = core.condition_on_system(state)
        for j in range(1, state.system_dim + 1):
            if weights[j - 1] == 0.0:
                with pytest.raises(ZeroProbabilityError):
                    delayed_marker_state(state, j)
                continue
            result = delayed_marker_state(state, j)
            assert result.marker_state.vector.tobytes() == conditionals[j - 1].tobytes()
            assert result.marker_state == marker.MarkerState(*conditionals[j - 1], f"detector{j}")
            plus, minus = erasure_basis(0.0)
            assert result.fidelity_dplus == core.overlap_fidelity(conditionals[j - 1], plus)
            assert result.fidelity_dminus == core.overlap_fidelity(conditionals[j - 1], minus)
        assert np.any(weights == 0.0) == (state.system_dim == 4)


class TestOracleEquivalence:
    def test_random_configs_match_brute_force(self):
        for k in range(20):
            config = random_config(2 + (k % 11), seed=5000 + k)
            bare = detector_probabilities(final_state_bare(config)).probabilities
            marked = detector_probabilities(final_state_marked(config)).probabilities
            assert np.max(np.abs(bare - bare_channel_probs(config.thetas, config.phis))) < 1e-12
            assert np.max(np.abs(marked - marked_channel_probs(config.thetas, config.phis))) < 1e-12

    def test_joint_table_matches_brute_force(self):
        for k in range(10):
            config = random_config(3 + k, seed=900 + k)
            state = final_state_marked(config)
            theta = 0.37 * (k + 1)
            table = analysis.joint_distribution(
                state, erasure_basis(theta), analysis.SYSTEM_FIRST
            )
            oracle = np.array(joint_channel_probs(config.thetas, config.phis, theta))
            assert np.max(np.abs(table.probabilities - oracle)) < 1e-12


class TestDistribution:
    def test_one_based_probability_accessor(self):
        dist = detector_probabilities(final_state_bare(default_config(10)))
        # detector j is probabilities[j - 1]
        assert dist.probabilities.size == 10
        assert dist.probabilities[0] == pytest.approx(0.2, abs=1e-12)
        assert dist.probabilities[1] == pytest.approx(0.0, abs=1e-12)
