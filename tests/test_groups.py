import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from spikesim.errors import ValidationError
from spikesim.groups import (CircleGroup, CyclicGroup, average_loss, canonicalize,
                             character, character_table, difference,
                             estimate_group_matrix, haar_sample, inverse, loss_values, pairwise_matrix, parse_group,
                             round_to_group)
from spikesim.rng import stream

Z2 = CyclicGroup(2)
Z4 = CyclicGroup(4)
Z5 = CyclicGroup(5)
U1 = CircleGroup()
TWO_PI = 2 * np.pi


def test_parse_group():
    assert parse_group("Z/2") == Z2
    assert parse_group(" Z/17 ") == CyclicGroup(17)
    assert parse_group("U(1)") == U1
    for bad in ("Z2", "Z/x", "SO(3)", "", "Z/1"):
        with pytest.raises(ValidationError):
            parse_group(bad)
    assert str(Z5) == "Z/5" and str(U1) == "U(1)"


def test_cyclic_order_validation():
    with pytest.raises(ValidationError):
        CyclicGroup(1)
    with pytest.raises(ValidationError):
        CyclicGroup(0)


def test_identity_and_canonicalize():
    # 0 is the identity of both groups: x x^{-1} = 0 and chi(0) = 1
    for group, x in ((Z5, 3), (U1, 2.5)):
        assert difference(group, x, x) == 0
        assert character(group, 0) == 1.0
    assert canonicalize(Z5, -2) == 3
    assert np.array_equal(canonicalize(Z5, [5, 6, -1]), [0, 1, 4])
    assert canonicalize(U1, TWO_PI) == 0.0
    assert canonicalize(U1, -1e-20) == 0.0  # np.mod would return exactly 2*pi here
    assert 0.0 <= canonicalize(U1, 123.456) < TWO_PI


def test_compose_inverse_difference():
    # x composed with y is difference(x, inverse(y))
    assert difference(Z5, 3, inverse(Z5, 4)) == 2
    assert inverse(Z5, 2) == 3
    assert inverse(Z5, 0) == 0
    assert difference(Z5, 1, 3) == 3
    a, b = 1.0, 5.0
    assert difference(U1, a, b) == pytest.approx(TWO_PI + a - b)
    assert difference(U1, inverse(U1, 2.5), inverse(U1, 2.5)) == 0.0


def test_character_exact_values():
    assert np.array_equal(character_table(Z2), [1.0 + 0j, -1.0 + 0j])
    # Z/2 characters are real: float64 from the table on, never cast back
    assert character_table(Z2).dtype == np.float64
    assert character(Z2, np.array([0, 1, 3])).dtype == np.float64
    assert character_table(Z4).dtype == np.complex128
    assert np.array_equal(character_table(Z4), [1, 1j, -1, -1j])
    assert character(Z2, 1) == -1.0 + 0.0j
    assert character(Z4, 3) == -1j
    assert character(U1, np.pi / 2) == pytest.approx(1j, abs=1e-15)
    for order in range(2, 25):
        tab = character_table(CyclicGroup(order))
        assert np.allclose(np.abs(tab), 1.0, atol=1e-15)
        assert len(np.unique(np.round(tab, 9))) == order  # injective


@given(st.integers(2, 24), st.integers(-50, 50), st.integers(-50, 50))
def test_character_is_a_homomorphism_cyclic(order, x, y):
    g = CyclicGroup(order)
    lhs = character(g, difference(g, x, inverse(g, y)))
    assert abs(lhs - character(g, x) * character(g, y)) <= 1e-12


@given(st.integers(2, 24), hnp.array_shapes(min_dims=0, max_dims=2, max_side=6), st.data())
def test_character_matches_canonical_table_lookup(order, shape, data):
    # character looks the table up with mode="wrap" instead of a modulo pass
    g = CyclicGroup(order)
    x = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(-3 * order, 3 * order)))
    got = character(g, x)
    want = character_table(g)[canonicalize(g, x)]
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(character(g, x.tolist()), want)  # Python ints and lists


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_character_is_a_homomorphism_circle(x, y):
    lhs = character(U1, difference(U1, x, inverse(U1, y)))
    assert abs(lhs - character(U1, x) * character(U1, y)) <= 1e-12


def test_haar_sample():
    r = haar_sample(Z5, 1000, stream(3, "haar"))
    assert r.dtype == np.int64 and r.min() >= 0 and r.max() <= 4
    assert len(np.unique(r)) == 5
    a = haar_sample(U1, 100, stream(3, "haar-u1"))
    assert ((0 <= a) & (a < TWO_PI)).all()
    assert np.array_equal(haar_sample(Z5, 10, stream(9)), haar_sample(Z5, 10, stream(9)))


def test_pairwise_matrix_small():
    m = pairwise_matrix(Z5, [0, 1, 3])
    assert np.array_equal(m, [[0, 4, 2], [1, 0, 3], [3, 2, 0]])
    # group-Hermitian: M[j, i] is the inverse of M[i, j], identity diagonal
    assert np.array_equal(m.T, inverse(Z5, m))
    a = pairwise_matrix(U1, [0.5, 1.25])
    assert a[0, 1] == pytest.approx(TWO_PI - 0.75)
    with pytest.raises(ValidationError):
        pairwise_matrix(Z5, [])


@given(st.lists(st.integers(0, 4), min_size=3, max_size=6))
def test_pairwise_cocycle(xs):
    m = pairwise_matrix(Z5, xs)
    n = len(xs)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert difference(Z5, m[i, j], inverse(Z5, m[j, k])) == m[i, k]


def test_round_cyclic_basic():
    assert round_to_group(Z2, 0.3 + 0j) == 0
    assert round_to_group(Z2, -0.2 + 5j) == 1
    assert round_to_group(Z4, 0.9 + 0.8j) == 0  # |z-1| < |z-i|
    assert round_to_group(Z4, -0.1 + 2j) == 1
    assert round_to_group(Z5, 0j) == 0  # identity at the origin
    arr = round_to_group(Z4, np.array([[1.0, 1j], [-2.0, -1j]]))
    assert np.array_equal(arr, [[0, 1], [2, 3]])
    assert np.isscalar(round_to_group(Z4, 1j)) or round_to_group(Z4, 1j).ndim == 0


def test_round_tie_goes_to_smaller_residue():
    # (1+i)/2 is equidistant from 1 and i
    assert round_to_group(Z4, 0.5 + 0.5j) == 0
    assert round_to_group(Z2, 0.0 + 1.0j) == 0  # equidistant from +-1
    assert round_to_group(Z4, -1.0 + 1.0j) == 1  # i and -1
    # the wrap-around tie between L-1 and 0 goes to 0
    assert round_to_group(Z2, -1.0j) == 0
    assert round_to_group(Z4, 1.0 - 1.0j) == 0
    # exp(2*pi*i/3) and exp(4*pi*i/3) are mirror images only in exact arithmetic
    assert round_to_group(CyclicGroup(3), -1.0 + 0.0j) == 1


def test_round_circle():
    assert round_to_group(U1, 1.0 + 0j) == 0.0
    assert round_to_group(U1, 1j) == pytest.approx(np.pi / 2)
    assert round_to_group(U1, -1.0 - 1e-9j) == pytest.approx(np.pi + 1e-9, abs=1e-12)
    assert round_to_group(U1, 0j) == 0.0
    vals = round_to_group(U1, np.array([2j, -5.0, 0j]))
    assert vals[2] == 0.0 and ((0 <= vals) & (vals < TWO_PI)).all()


def test_round_inverts_character():
    for order in range(2, 25):
        g = CyclicGroup(order)
        x = np.arange(order)
        assert np.array_equal(round_to_group(g, character(g, x)), x)
    ang = np.linspace(0, TWO_PI, 37, endpoint=False)
    assert np.allclose(round_to_group(U1, character(U1, ang)), ang, atol=1e-12)


def _table_round(group, z):
    """Reference rounding: argmin of |z - chi(k)|^2 over the character table.

    Returns the residues and the gap between the two smallest distances.
    """
    z = np.asarray(z, dtype=np.complex128)
    d2 = np.abs(z[..., None] - character_table(group)) ** 2
    two = np.sort(d2, axis=-1)[..., :2]
    return np.where(z == 0, 0, np.argmin(d2, axis=-1)), two[..., 1] - two[..., 0]


_coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@given(st.integers(2, 24), st.booleans(),
       hnp.array_shapes(min_dims=0, max_dims=2, max_side=6), st.data())
def test_round_matches_bruteforce_oracle(order, real, shape, data):
    g = CyclicGroup(order)
    if real:
        z = data.draw(hnp.arrays(np.float64, shape, elements=_coords))
    else:
        z = data.draw(hnp.arrays(np.complex128, shape,
                                 elements=st.builds(complex, _coords, _coords)))
    got = round_to_group(g, z)
    assert np.shape(got) == z.shape
    expect, gap = _table_round(g, z)
    clear = gap > 1e-12 * (1.0 + np.abs(z) ** 2)
    assert np.array_equal(np.asarray(got)[clear], expect[clear])


def test_estimate_group_matrix_noiseless():
    rng = stream(5, "estimate")
    for g in (Z2, Z5, U1):
        x = haar_sample(g, 30, rng)
        v = character(g, x) / np.sqrt(30)
        m = estimate_group_matrix(g, v)
        truth = pairwise_matrix(g, x)
        if isinstance(g, CyclicGroup):
            assert np.array_equal(m, truth)
        else:
            assert np.allclose(np.cos(m - truth), 1.0, atol=1e-12)
        # global phase invariance
        m2 = estimate_group_matrix(g, v * np.exp(0.7j))
        assert np.array_equal(m, m2) if isinstance(g, CyclicGroup) else \
            np.allclose(np.cos(m - m2), 1.0, atol=1e-12)
    with pytest.raises(ValidationError):
        estimate_group_matrix(Z2, np.zeros((2, 2)))


def test_loss_values():
    assert np.array_equal(loss_values(Z5, [0, 1, 2], [0, 2, 2]), [0.0, 1.0, 0.0])
    assert loss_values(U1, 1.0, 1.0) == 0.0
    assert loss_values(U1, 0.0, np.pi) == pytest.approx(2.0)
    assert loss_values(Z5, -1, 4) == 0.0  # canonicalized before comparing


def test_average_loss_basics():
    x = haar_sample(Z5, 12, stream(7, "avg"))
    m = pairwise_matrix(Z5, x)
    assert average_loss(Z5, m, m) == 0.0
    assert average_loss(Z5, m, difference(Z5, m, 1)) == 1.0
    with pytest.raises(ValidationError):
        average_loss(Z5, m, m[:5, :5])
    with pytest.raises(ValidationError):
        average_loss(Z5, np.zeros(3), np.zeros(3))


def test_average_loss_translation_invariance():
    # relabeling every element by a common left shift preserves pairwise differences
    g = Z5
    x = haar_sample(g, 20, stream(8, "shift"))
    m1 = pairwise_matrix(g, x)
    m2 = pairwise_matrix(g, difference(g, x, inverse(g, 2)))
    assert np.array_equal(m1, m2)
    a = haar_sample(U1, 20, stream(8, "shift-u1"))
    assert np.allclose(np.cos(pairwise_matrix(U1, a) -
                              pairwise_matrix(U1, difference(U1, a, inverse(U1, 1.234)))),
                      1.0, atol=1e-12)


def test_average_loss_independent_angles_near_one():
    # E[1 - cos(U - V)] = 1 for independent uniform angles
    rng = stream(9, "indep")
    a = haar_sample(U1, 100, rng)
    b = haar_sample(U1, 100, rng)
    val = average_loss(U1, pairwise_matrix(U1, a), pairwise_matrix(U1, b))
    assert abs(val - 1.0) <= 0.05
