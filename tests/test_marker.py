import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeraser.errors import NonFinitePhaseError
from qeraser.marker import MarkerState, erasure_basis, which_path_basis

SQ = 1.0 / math.sqrt(2.0)

angles = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def unbiasedness_deviation(basis_a, basis_b):
    """Largest deviation of the four cross |overlap|^2 from 1/2; 0 when
    the two bases are exactly mutually unbiased."""
    return max(abs(a.squared_overlap(b) - 0.5) for a in basis_a for b in basis_b)


def test_which_path_basis_is_canonical():
    d1, d2 = which_path_basis()
    assert (d1.c1, d1.c2) == (1, 0)
    assert (d2.c1, d2.c2) == (0, 1)
    assert d1.overlap(d2) == 0


def test_erasure_basis_at_zero():
    basis = erasure_basis(0.0)
    assert np.allclose(basis.plus.vector, [SQ, SQ], atol=1e-15)
    assert np.allclose(basis.minus.vector, [SQ, -SQ], atol=1e-15)


def test_erasure_basis_at_half_pi():
    basis = erasure_basis(math.pi / 2)
    assert np.allclose(basis.plus.vector, [1j * SQ, -1j * SQ], atol=1e-12)
    assert np.allclose(basis.minus.vector, [1j * SQ, 1j * SQ], atol=1e-12)


def test_unbiasedness_brute_force_sweep():
    # Direct scalar evaluation of |<d1|plus(theta)>|^2 over 100 angles.
    d1, d2 = which_path_basis()
    for theta in np.linspace(-3 * math.pi, 3 * math.pi, 100):
        basis = erasure_basis(float(theta))
        expected = abs(cmath.exp(1j * theta) / math.sqrt(2)) ** 2
        assert expected == pytest.approx(0.5, abs=1e-12)
        assert d1.squared_overlap(basis.plus) == pytest.approx(0.5, abs=1e-12)
        assert d2.squared_overlap(basis.plus) == pytest.approx(0.5, abs=1e-12)
        assert d1.squared_overlap(basis.minus) == pytest.approx(0.5, abs=1e-12)


@given(angles)
@settings(max_examples=80, deadline=None)
def test_erasure_basis_is_orthonormal(theta):
    basis = erasure_basis(theta)
    assert abs(basis.plus.squared_overlap(basis.plus) - 1.0) < 1e-12
    assert abs(basis.minus.squared_overlap(basis.minus) - 1.0) < 1e-12
    assert abs(basis.plus.overlap(basis.minus)) < 1e-12


@given(angles)
@settings(max_examples=80, deadline=None)
def test_erasure_basis_is_unbiased_with_which_path(theta):
    assert unbiasedness_deviation(erasure_basis(theta), which_path_basis()) < 1e-12


@given(angles)
@settings(max_examples=80, deadline=None)
def test_theta_plus_pi_gives_same_basis_up_to_sign(theta):
    base = erasure_basis(theta)
    shifted = erasure_basis(theta + math.pi)
    assert np.allclose(shifted.plus.vector, -base.plus.vector, atol=1e-12)
    assert np.allclose(shifted.minus.vector, -base.minus.vector, atol=1e-12)
    # all |overlap|^2 tables agree
    for a in base:
        for b, c in zip(base, shifted):
            assert abs(a.squared_overlap(b) - a.squared_overlap(c)) < 1e-12


def test_mutual_unbiasedness_examples():
    assert unbiasedness_deviation(erasure_basis(0.0), which_path_basis()) < 1e-12
    assert unbiasedness_deviation(erasure_basis(1.234), which_path_basis()) < 1e-12
    deviation = unbiasedness_deviation(which_path_basis(), which_path_basis())
    assert deviation == pytest.approx(0.5, abs=1e-15)


def test_non_finite_theta_rejected():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFinitePhaseError):
            erasure_basis(bad)


@pytest.mark.parametrize(
    "c1, c2", [("x", 0), ("1", 0), (0, "1"), (np.str_("1"), 0)],
    ids=["junk", "numeric", "second", "numpy-str"],
)
def test_marker_state_parses_no_string(c1, c2):
    """A str amplitude is a TypeError: "1" is not read as 1 + 0j."""
    with pytest.raises(TypeError):
        MarkerState(c1, c2)


def test_marker_state_must_be_normalized():
    with pytest.raises(ValueError):
        MarkerState(1.0, 1.0)
    with pytest.raises(ValueError):
        MarkerState(complex("nan"), 0.0)


def test_marker_state_array_protocol():
    d1, _ = which_path_basis()
    assert np.array_equal(np.asarray(d1, dtype=complex), [1, 0])
