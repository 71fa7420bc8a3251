import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conditioned_screen_joint
from qeraser import analysis, core
from qeraser.errors import (
    IndexOutOfRangeError,
    InvalidGeometryError,
    NonFinitePhaseError,
    ValidationError,
    ZeroProbabilityError,
)
from qeraser.marker import erasure_basis
from qeraser.twoslit import (
    ScreenGeometry,
    ScreenGrid,
    build_grid,
    default_geometry,
    default_grid,
    delayed_marker_state_at,
    marked_state,
    pattern_conditioned,
    pattern_marked_unconditioned,
    pattern_no_marker,
    visibility,
)

SQ = 1.0 / math.sqrt(2.0)

GRID = default_grid()
W = GRID.geometry.fringe_width
BINS_PER_FRINGE = 128  # 512 bins over four fringes


def bin_at(x):
    k = int(round((x - GRID.geometry.x_min) / GRID.dx))
    assert abs(GRID.positions[k] - x) < 1e-9
    return k


class TestGeometry:
    def test_fringe_width(self):
        geometry = ScreenGeometry(2.0, 1.0, 1000.0, -10.0, 10.0, 16)
        assert geometry.fringe_width == 500.0

    def test_default_geometry_spans_four_fringes(self):
        geometry = default_geometry()
        assert geometry.fringe_width == 500.0
        assert geometry.x_min == -2 * 500.0 and geometry.x_max == 2 * 500.0
        assert geometry.bins == 512

    def test_invalid_geometry_rejected(self):
        with pytest.raises(InvalidGeometryError):
            ScreenGeometry(-1.0, 1.0, 1.0, 0.0, 1.0, 8)
        with pytest.raises(InvalidGeometryError):
            ScreenGeometry(1.0, 1.0, 1.0, 1.0, 0.0, 8)
        with pytest.raises(InvalidGeometryError):
            ScreenGeometry(1.0, 1.0, 1.0, 0.0, 1.0, 1)
        with pytest.raises(InvalidGeometryError):
            ScreenGeometry(1.0, float("inf"), 1.0, 0.0, 1.0, 8)

    def test_bins_size_limit(self):
        assert ScreenGeometry(1.0, 1.0, 1.0, 0.0, 1.0, core.MAX_SIZE).bins == core.MAX_SIZE
        with pytest.raises(InvalidGeometryError):
            ScreenGeometry(1.0, 1.0, 1.0, 0.0, 1.0, core.MAX_SIZE + 1)

    @pytest.mark.parametrize("bins", [512.0, 512.5, "512", None, True])
    def test_bins_must_be_an_integer(self, bins):
        with pytest.raises(InvalidGeometryError, match="integer"):
            ScreenGeometry(2.0, 1.0, 1000.0, -1000.0, 1000.0, bins)

    def test_numpy_integer_bins_accepted(self):
        geometry = ScreenGeometry(2.0, 1.0, 1000.0, -1000.0, 1000.0, np.int64(512))
        assert build_grid(geometry).positions.tobytes() == GRID.positions.tobytes()


@st.composite
def geometries(draw):
    """Screens of 2 to 4096 bins with random extents and slit parameters."""
    x_min = draw(st.floats(-1e6, 1e6))
    x_max = x_min + draw(st.floats(1e-3, 1e6))
    d, wavelength, length = (draw(st.floats(0.1, 10.0)) for _ in range(3))
    return ScreenGeometry(d, wavelength, length, x_min, x_max, draw(st.integers(2, 4096)))


class TestGrid:
    def test_flat_envelope_is_uniform_density(self):
        extent = GRID.geometry.x_max - GRID.geometry.x_min
        assert np.allclose(GRID.envelope**2, 1.0 / extent, rtol=1e-12)

    def test_envelope_normalized_on_grid(self):
        assert abs(float(np.sum(GRID.envelope**2)) * GRID.dx - 1.0) < 1e-10
        gauss = build_grid(default_geometry(), "gaussian", sigma=300.0)
        assert abs(float(np.sum(gauss.envelope**2)) * gauss.dx - 1.0) < 1e-10

    def test_phase_at_half_fringe_is_half_pi(self):
        k = bin_at(W / 2)
        assert GRID.theta_x[k] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_phase_formula(self):
        geo = GRID.geometry
        expected = math.pi * GRID.positions * geo.d / (geo.wavelength * geo.L)
        assert np.max(np.abs(GRID.theta_x - expected)) < 1e-12

    def test_gaussian_requires_sigma(self):
        with pytest.raises(InvalidGeometryError):
            build_grid(default_geometry(), "gaussian")
        with pytest.raises(InvalidGeometryError):
            build_grid(default_geometry(), "lorentzian")

    def test_underflowing_envelope_rejected(self):
        geometry = ScreenGeometry(2.0, 1.0, 1000.0, 1000.0, 2000.0, 512)
        with pytest.raises(InvalidGeometryError, match="norm"):
            build_grid(geometry, "gaussian", sigma=1e-3)

    @settings(max_examples=100)
    @given(geometries(), st.sampled_from(["flat", "gaussian"]), st.floats(0.5, 4.0))
    def test_positions_and_phases_follow_the_geometry(self, geometry, kind, width):
        sigma = width * max(abs(geometry.x_min), abs(geometry.x_max))
        grid = build_grid(geometry, kind, sigma)
        positions = geometry.x_min + np.arange(geometry.bins) * geometry.dx
        assert grid.positions.tobytes() == positions.tobytes()
        assert grid.theta_x.tobytes() == (geometry.phase_scale * positions).tobytes()

    def test_grid_takes_only_geometry_and_envelope(self):
        with pytest.raises(TypeError):
            ScreenGrid(GRID.geometry, GRID.positions, GRID.theta_x, GRID.envelope)
        with pytest.raises(TypeError):
            ScreenGrid(GRID.geometry, GRID.envelope, positions=GRID.positions)
        grid = ScreenGrid(GRID.geometry, GRID.envelope)
        for values in (grid.positions, grid.theta_x, grid.envelope):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0

    @pytest.mark.parametrize("shape", [(511,), (513,), (16, 32)])
    def test_envelope_must_be_one_entry_per_bin(self, shape):
        env = np.resize(GRID.envelope, shape)
        with pytest.raises(InvalidGeometryError, match="one entry per bin"):
            ScreenGrid(GRID.geometry, env)

    def test_non_finite_envelope_rejected(self):
        env = GRID.envelope.copy()
        env[3] = float("nan")
        with pytest.raises(InvalidGeometryError, match="finite"):
            ScreenGrid(GRID.geometry, env)


class TestPatterns:
    def test_no_marker_peaks_and_nulls(self):
        pattern = pattern_no_marker(GRID)
        center = bin_at(0.0)
        dark = bin_at(W / 2)
        assert pattern.probabilities[center] == np.max(pattern.probabilities)
        assert pattern.probabilities[dark] < 1e-12

    def test_no_marker_peak_spacing_is_fringe_width(self):
        probs = pattern_no_marker(GRID).probabilities
        peaks = [
            k
            for k in range(1, GRID.bins - 1)
            if probs[k] > probs[k - 1] and probs[k] > probs[k + 1]
        ]
        spacings = np.diff(GRID.positions[peaks])
        assert np.max(np.abs(spacings - W)) < GRID.dx

    def test_washed_pattern_is_flat_envelope(self):
        probs = pattern_marked_unconditioned(GRID).probabilities
        assert np.max(np.abs(probs - 1.0 / GRID.bins)) < 1e-12

    def test_washed_equals_weighted_branch_average(self):
        washed = pattern_marked_unconditioned(GRID).probabilities
        for theta in np.linspace(0.0, math.pi, 32, endpoint=False):
            plus, p_plus = pattern_conditioned(GRID, float(theta), "plus")
            minus, p_minus = pattern_conditioned(GRID, float(theta), "minus")
            mixed = p_plus * plus.probabilities + p_minus * minus.probabilities
            assert np.max(np.abs(mixed - washed)) < 1e-12

    def test_conditioned_maxima_on_fringe_lattice(self):
        pattern, probability = pattern_conditioned(GRID, 0.0, "plus")
        assert probability == pytest.approx(0.5, abs=1e-12)
        top = np.max(pattern.probabilities)
        for m in (-2, -1, 0, 1):
            assert pattern.probabilities[bin_at(m * W)] == pytest.approx(top, abs=1e-12)

    def test_minus_branch_is_shifted_half_fringe(self):
        plus, _ = pattern_conditioned(GRID, 0.0, "plus")
        minus, _ = pattern_conditioned(GRID, 0.0, "minus")
        assert np.max(
            np.abs(minus.probabilities - np.roll(plus.probabilities, BINS_PER_FRINGE // 2))
        ) < 1e-12

    def test_quarter_turn_shifts_quarter_fringe(self):
        base, _ = pattern_conditioned(GRID, 0.0, "plus")
        shifted, _ = pattern_conditioned(GRID, math.pi / 4, "plus")
        lag = BINS_PER_FRINGE // 4  # theta * w / pi = w / 4
        assert np.max(
            np.abs(shifted.probabilities - np.roll(base.probabilities, lag))
        ) < 1e-12
        # cross-correlation peak lands on the same lag
        correlations = [
            float(np.dot(shifted.probabilities, np.roll(base.probabilities, k)))
            for k in range(GRID.bins)
        ]
        assert int(np.argmax(correlations)) == lag

    def test_shift_property_bin_exact_for_integer_shifts(self):
        base, _ = pattern_conditioned(GRID, 0.0, "plus")
        for m in (1, 5, 64):
            theta = m * math.pi * GRID.dx / W
            shifted, _ = pattern_conditioned(GRID, theta, "plus")
            assert np.max(
                np.abs(shifted.probabilities - np.roll(base.probabilities, m))
            ) < 1e-12

    def test_conditioned_matches_closed_form(self):
        geo = GRID.geometry
        for theta in (0.0, 0.3, 2.2):
            for sign, direction in (("plus", +1), ("minus", -1)):
                pattern, probability = pattern_conditioned(GRID, theta, sign)
                joint = np.array(
                    conditioned_screen_joint(
                        GRID.positions, GRID.envelope, GRID.dx,
                        geo.d, geo.wavelength, geo.L, theta, direction,
                    )
                )
                assert abs(probability - joint.sum()) < 1e-12
                assert np.max(np.abs(pattern.probabilities - joint / joint.sum())) < 1e-12

    def test_branch_probabilities_are_half(self):
        for theta in np.linspace(0.0, math.pi, 8, endpoint=False):
            _, p_plus = pattern_conditioned(GRID, float(theta), "plus")
            _, p_minus = pattern_conditioned(GRID, float(theta), "minus")
            assert p_plus == pytest.approx(0.5, abs=1e-12)
            assert p_minus == pytest.approx(0.5, abs=1e-12)

    def test_non_finite_theta_rejected(self):
        with pytest.raises(NonFinitePhaseError):
            pattern_conditioned(GRID, float("inf"), "plus")
        with pytest.raises(ValueError):
            pattern_conditioned(GRID, 0.0, "sideways")

    def test_sign_is_a_basis_field_name(self):
        """Only "plus" and "minus" select an element; the symbol spellings are gone."""
        for sign in ("+", "sideways"):
            with pytest.raises(ValidationError, match="sign"):
                pattern_conditioned(GRID, 0.0, sign)


class TestDelayedMode:
    def test_center_bin_gives_dplus(self):
        result = delayed_marker_state_at(GRID, bin_at(0.0))
        assert result.theta_x == 0.0
        assert np.allclose(result.marker_state.vector, [SQ, SQ], atol=1e-12)
        assert result.fidelity_dplus_thetax == pytest.approx(1.0, abs=1e-12)

    def test_half_fringe_bin_is_orthogonal_to_plain_dplus(self):
        result = delayed_marker_state_at(GRID, bin_at(W / 2))
        assert result.theta_x == pytest.approx(math.pi / 2, abs=1e-12)
        # |<plus(0)|plus(pi/2)>|^2 = cos^2(pi/2) = 0
        overlap = erasure_basis(0.0).plus.squared_overlap(result.marker_state)
        assert overlap == pytest.approx(math.cos(math.pi / 2) ** 2, abs=1e-12)
        assert overlap < 1e-12
        minus_overlap = erasure_basis(0.0).minus.squared_overlap(result.marker_state)
        assert minus_overlap == pytest.approx(1.0, abs=1e-12)

    def test_every_bin_reaches_definite_state(self):
        for k in range(GRID.bins):
            result = delayed_marker_state_at(GRID, k)
            assert abs(result.fidelity_dplus_thetax - 1.0) < 1e-12
            vec = result.marker_state.vector
            rho = core.DensityOperator(np.outer(vec, vec.conj()))
            assert abs(core.purity(rho) - 1.0) < 1e-12

    def test_matches_projection_of_full_screen_state(self):
        grid = build_grid(default_geometry(), "gaussian", sigma=300.0)
        state = marked_state(grid)
        for k in range(0, grid.bins, 7):
            conditional, _ = core.project_system(state, k)
            result = delayed_marker_state_at(grid, k)
            assert np.max(np.abs(result.marker_state.vector - conditional)) < 1e-12

    def test_zero_envelope_bin_rejected(self):
        env = np.ones(512)
        env[:256] = 0.0
        env = env / math.sqrt(float(np.sum(env**2)) * GRID.dx)
        grid = ScreenGrid(GRID.geometry, env)
        with pytest.raises(ZeroProbabilityError):
            delayed_marker_state_at(grid, 0)

    def test_bin_index_bounds(self):
        with pytest.raises(IndexOutOfRangeError):
            delayed_marker_state_at(GRID, -1)
        with pytest.raises(IndexOutOfRangeError):
            delayed_marker_state_at(GRID, 512)


class TestVisibility:
    def test_full_contrast_without_marker(self):
        assert abs(visibility(GRID, pattern_no_marker(GRID)) - 1.0) < 1e-9

    def test_zero_contrast_when_marked(self):
        assert visibility(GRID, pattern_marked_unconditioned(GRID)) < 1e-12

    def test_full_contrast_when_conditioned(self):
        for theta in np.linspace(0.0, math.pi, 32, endpoint=False):
            pattern, _ = pattern_conditioned(GRID, float(theta), "plus")
            assert abs(visibility(GRID, pattern) - 1.0) < 1e-9

    def test_gaussian_envelope_correction(self):
        grid = build_grid(default_geometry(), "gaussian", sigma=400.0)
        pattern, _ = pattern_conditioned(grid, 0.0, "plus")
        assert abs(visibility(grid, pattern) - 1.0) < 1e-9
        # the envelope correction is what makes a pure gaussian read as flat
        washed = pattern_marked_unconditioned(grid)
        assert visibility(grid, washed) < 1e-12
        assert visibility(grid, washed, envelope_corrected=False) > 0.5

    def test_doubling_bins_leaves_visibility_fixed(self):
        geometry = default_geometry()
        doubled = ScreenGeometry(
            geometry.d, geometry.wavelength, geometry.L,
            geometry.x_min, geometry.x_max, geometry.bins * 2,
        )
        coarse_grid, fine_grid = build_grid(geometry), build_grid(doubled)
        coarse, _ = pattern_conditioned(coarse_grid, 0.0, "plus")
        fine, _ = pattern_conditioned(fine_grid, 0.0, "plus")
        assert abs(visibility(coarse_grid, coarse) - visibility(fine_grid, fine)) < 1e-6

    def test_pattern_from_another_grid_rejected(self):
        other = build_grid(ScreenGeometry(2.0, 1.0, 1000.0, -500.0, 500.0, 4))
        with pytest.raises(InvalidGeometryError):
            visibility(GRID, pattern_no_marker(other))
        with pytest.raises(InvalidGeometryError):
            visibility(other, pattern_no_marker(GRID), envelope_corrected=False)


class TestOrdering:
    def test_screen_ordering_invariance(self):
        state = marked_state(GRID)
        residual = analysis.ordering_invariance_residual(state, erasure_basis(0.7))
        assert residual < 1e-12
