import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

from spikesim.limits import (outlier_eigenvalue, overlap_limit,
                             residual_variance_limit, semicircle_cauchy_transform,
                             semicircle_cauchy_transform_deriv, semicircle_density)

THETAS = (1.1, 1.5, 2.0, 3.0, 10.0)


def test_outlier_eigenvalue_values():
    assert outlier_eigenvalue(2.0) == 2.5
    assert outlier_eigenvalue(3.0) == 3.0 + 1.0 / 3.0
    assert outlier_eigenvalue(0.5) == 2.0
    assert outlier_eigenvalue(1.0) == 2.0
    assert outlier_eigenvalue(1.05) == pytest.approx(1.05 + 1 / 1.05, abs=1e-15)


def test_overlap_limit_values():
    assert overlap_limit(2.0) == 0.75
    assert overlap_limit(1.0) == 0.0
    assert overlap_limit(0.3) == 0.0
    assert overlap_limit(100.0) == pytest.approx(1.0, abs=1e-4)


def test_residual_variance_values_and_domain():
    assert residual_variance_limit(2.0) == 0.25
    for bad in (1.0, 0.5):
        with pytest.raises(ValueError):
            residual_variance_limit(bad)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            outlier_eigenvalue(bad)


def test_overlap_plus_residual_is_exactly_one():
    for theta in THETAS:
        assert overlap_limit(theta) + residual_variance_limit(theta) == 1.0


@given(st.floats(min_value=1.0000001, max_value=1e12))
def test_overlap_plus_residual_exact_property(theta):
    # Sterbenz-style: fl(1 - t) + t == 1 whenever t = 1/theta^2 is in [0, 1]
    assert overlap_limit(theta) + residual_variance_limit(theta) == 1.0


def test_semicircle_density_pointwise():
    assert semicircle_density(0.0) == pytest.approx(1.0 / np.pi, abs=1e-15)
    assert semicircle_density(2.0) == 0.0
    assert semicircle_density(-2.0) == 0.0
    assert semicircle_density(2.5) == 0.0
    assert semicircle_density(-7.0) == 0.0
    arr = semicircle_density(np.array([-3.0, 0.0, 1.0]))
    assert arr.shape == (3,)
    assert arr[0] == 0.0 and arr[2] == pytest.approx(np.sqrt(3.0) / (2 * np.pi))


def test_semicircle_moments_by_quadrature():
    # oracle: adaptive quadrature of the density itself
    mass, _ = quad(semicircle_density, -2, 2)
    m2, _ = quad(lambda x: x * x * semicircle_density(x), -2, 2)
    m4, _ = quad(lambda x: x ** 4 * semicircle_density(x), -2, 2)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert m2 == pytest.approx(1.0, abs=1e-10)
    assert m4 == pytest.approx(2.0, abs=1e-10)


def test_cauchy_transform_at_outlier_locations():
    # G(theta + 1/theta) = 1/theta for every theta > 1
    for theta in THETAS:
        z = theta + 1.0 / theta
        assert abs(semicircle_cauchy_transform(z) - 1.0 / theta) <= 1e-12


def test_cauchy_transform_reference_points():
    assert semicircle_cauchy_transform(2.5) == pytest.approx(0.5, abs=1e-14)
    assert semicircle_cauchy_transform(10.0 / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert semicircle_cauchy_transform(-10.0 / 3.0) == pytest.approx(-1.0 / 3.0, abs=1e-14)
    # oracle: quadrature of rho(x)/(z - x)
    z = 2.5 + 0.7j
    ref = (quad(lambda x: semicircle_density(x) / abs(z - x) ** 2 * (z.real - x), -2, 2)[0]
           - 1j * quad(lambda x: semicircle_density(x) / abs(z - x) ** 2 * z.imag, -2, 2)[0])
    assert semicircle_cauchy_transform(z) == pytest.approx(ref, abs=1e-10)


def test_cauchy_transform_large_argument():
    for z in (1e6, -1e6, 1e6 * (1 + 1j), 1e8j):
        g = semicircle_cauchy_transform(z)
        assert abs(z * g - 1.0) <= 1e-6


def test_cauchy_transform_cut_rejected():
    for z in (0.0, 1.5, -2.0, 2.0):
        with pytest.raises(ValueError):
            semicircle_cauchy_transform(z)
        with pytest.raises(ValueError):
            semicircle_cauchy_transform_deriv(z)
    with pytest.raises(ValueError):
        semicircle_cauchy_transform(complex(np.inf, 1.0))


def test_cauchy_transform_herglotz_sign():
    # Im G < 0 in the upper half plane (Stieltjes transform of a measure)
    for z in (0.3 + 1e-3j, -1.7 + 0.5j, 2.1 + 2j):
        assert semicircle_cauchy_transform(z).imag < 0


def test_derivative_matches_central_differences():
    h = 1e-6
    for z in (2.5, 3.0, -4.0, 2.2 + 0.5j, 1e3):
        fd = (semicircle_cauchy_transform(z + h) - semicircle_cauchy_transform(z - h)) / (2 * h)
        assert semicircle_cauchy_transform_deriv(z) == pytest.approx(fd, abs=1e-6)
    assert semicircle_cauchy_transform_deriv(2.5) == pytest.approx(-1.0 / 3.0, abs=1e-13)


off_cut = st.complex_numbers(min_magnitude=0, max_magnitude=50,
                             allow_nan=False, allow_infinity=False).filter(
    lambda z: abs(z.imag) > 1e-3 or abs(z.real) > 2.001)


@given(off_cut)
def test_quadratic_relation_property(z):
    g = semicircle_cauchy_transform(z)
    assert abs(g * g - z * g + 1.0) <= 1e-9 * max(1.0, abs(z))


@given(off_cut)
@example(complex(-3.0, -0.0))
def test_decaying_branch_property(z):
    # the physical branch satisfies |G| <= 1 off the cut (equality on the cut edge)
    g = semicircle_cauchy_transform(z)
    assert abs(g) <= 1.0 + 1e-12
