import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from spikesim.errors import ValidationError
from spikesim.groups import (CircleGroup, CyclicGroup, _residue, average_loss, character,
                             character_table, difference, estimate_group_matrix,
                             haar_sample, loss_values, pairwise_matrix, parse_group,
                             round_to_group)
from spikesim.rng import stream

Z2 = CyclicGroup(2)
Z4 = CyclicGroup(4)
Z5 = CyclicGroup(5)
U1 = CircleGroup()
TWO_PI = 2 * np.pi


# Test-side copies of the canonical form, inverse and mismatch that groups.py
# once computed on their own; difference(g, x, 0), difference(g, 0, x) and
# loss_values must reproduce them bit for bit.

def _wrap(a):
    # [()]: a scalar angle gives a numpy scalar, as a scalar residue does
    y = np.mod(a, TWO_PI)
    return np.where(y == TWO_PI, 0.0, y)[()]


def _canonicalize(group, x):
    if isinstance(group, CyclicGroup):
        return np.mod(np.asarray(x, dtype=np.int64), group.order)
    return _wrap(np.asarray(x, dtype=np.float64))


def _inverse(group, x):
    if isinstance(group, CyclicGroup):
        return np.mod(-np.asarray(x, dtype=np.int64), group.order)
    return _wrap(-np.asarray(x, dtype=np.float64))


def _mismatch(group, truth, estimate):
    return (_canonicalize(group, truth) != _canonicalize(group, estimate)).astype(np.float64)


def _compose(group, x, y):
    """x composed with y, written as x times the inverse of y^{-1}."""
    return difference(group, x, difference(group, 0, y))


def _same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).dtype == np.asarray(want).dtype
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


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
    # difference(g, x, 0) is the canonical form of x
    assert difference(Z5, -2, 0) == 3
    assert np.array_equal(difference(Z5, [5, 6, -1], 0), [0, 1, 4])
    assert difference(U1, TWO_PI, 0) == 0.0
    assert difference(U1, -1e-20, 0) == 0.0  # np.mod would return exactly 2*pi here
    assert 0.0 <= difference(U1, 123.456, 0) < TWO_PI


def test_compose_inverse_difference():
    # difference(g, 0, y) is the inverse of y; x composed with y is
    # difference(x, y^{-1})
    assert _compose(Z5, 3, 4) == 2
    assert difference(Z5, 0, 2) == 3
    assert difference(Z5, 0, 0) == 0
    assert difference(Z5, 1, 3) == 3
    a, b = 1.0, 5.0
    assert difference(U1, a, b) == pytest.approx(TWO_PI + a - b)
    assert difference(U1, difference(U1, 0, 2.5), difference(U1, 0, 2.5)) == 0.0


_CYCLIC = [CyclicGroup(order) for order in range(2, 25)]
# -0.0, 2*pi, tiny negatives and subnormal-adjacent angles are where np.mod
# alone would leave a representative outside [0, 2*pi)
_ANGLES = np.array([0.0, -0.0, TWO_PI, -TWO_PI, -1e-20, 1e-20, 1e-300, -1e-300,
                    np.pi, -np.pi, 2.5, -2.5, 123.456, -123.456, 7.0, 1e6])


@pytest.mark.parametrize("group", _CYCLIC, ids=str)
def test_difference_reproduces_old_canonicalize_and_inverse_cyclic(group):
    order = group.order
    reps = np.arange(-3 * order, 3 * order + 1, dtype=np.int64)
    for x in (reps, reps[: 2 * order].reshape(2, order), reps.tolist()):
        assert _same_bits(difference(group, x, 0), _canonicalize(group, x))
        assert _same_bits(difference(group, 0, x), _inverse(group, x))
    for x in (-order - 1, -1, 0, order - 1, order, 5 * order + 2):
        assert _same_bits(difference(group, x, 0), _canonicalize(group, x))
        assert _same_bits(difference(group, 0, x), _inverse(group, x))


def test_difference_reproduces_old_canonicalize_and_inverse_circle():
    for x in (_ANGLES, _ANGLES.reshape(4, 4), _ANGLES.tolist()):
        assert _same_bits(difference(U1, x, 0), _canonicalize(U1, x))
        assert _same_bits(difference(U1, 0, x), _inverse(U1, x))
    for x in _ANGLES.tolist():
        assert _same_bits(difference(U1, x, 0), _canonicalize(U1, x))
        assert _same_bits(difference(U1, 0, x), _inverse(U1, x))
    assert difference(U1, 0, -0.0) == 0.0 and difference(U1, 0, TWO_PI) == 0.0
    assert difference(U1, 0, -1e-20) == 1e-20


def test_scalar_inputs_give_numpy_scalars():
    # one contract for both groups: scalars in, a numpy scalar out; arrays,
    # 0-d ones included in the input, keep their shape
    for group, x, y, z, kind in ((Z5, 1, 3, 1j, np.int64), (U1, 1.0, 2.0, 1j, np.float64)):
        for got in (difference(group, x, y), difference(group, np.asarray(x), y),
                    round_to_group(group, z), round_to_group(group, np.asarray(z))):
            assert type(got) is kind
        assert difference(group, [x], y).shape == (1,)
        assert round_to_group(group, np.array([[z]])).shape == (1, 1)


# Test-side copies of the np.mod residues that difference and round_to_group
# computed before they reduced with fmod in place.

def _old_difference(group, x, y):
    if isinstance(group, CyclicGroup):
        return np.mod(np.asarray(x, dtype=np.int64) - np.asarray(y, dtype=np.int64), group.order)
    return _wrap(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))


def _old_round(group, z):
    z = np.asarray(z)
    if isinstance(group, CyclicGroup):
        t = np.angle(z) / TWO_PI * group.order
        k = np.where((t == -0.5) | (z == 0), 0.0, np.ceil(t - 0.5))
        return np.mod(k.astype(np.int64), group.order)
    return np.where(z == 0, 0.0, _wrap(np.angle(z)))[()]


def _near_turns(k):
    """k * 2*pi and its neighbours one ulp below and above."""
    c = k * TWO_PI
    return st.sampled_from([np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)])


# finite angles whose differences stay finite: signed zeros, subnormals,
# +-1e300, and values one ulp either side of a whole number of turns
_EDGE_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     -2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300, np.pi, -np.pi]),
    st.integers(-10**6, 10**6).flatmap(_near_turns),
    st.floats(-1e300, 1e300, allow_subnormal=True),
)
_ANGLE_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=5),
                           elements=_EDGE_ANGLES)


@given(_ANGLE_ARRAYS, st.data())
def test_difference_circle_bytes_match_np_mod(x, data):
    y = data.draw(hnp.arrays(np.float64, x.shape, elements=_EDGE_ANGLES))
    for a, b in ((x, y), (y, x), (x, 0), (0, x), (x, -0.0)):
        assert _same_bits(difference(U1, a, b), _old_difference(U1, a, b))
    for a, b in zip(x.ravel().tolist(), y.ravel().tolist()):
        assert _same_bits(difference(U1, a, b), _old_difference(U1, a, b))


@given(st.sampled_from([2, 3, 4, 5, 7, 1000]),
       hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=5),
                  elements=st.integers(-2**62, 2**62)),
       st.data())
def test_difference_cyclic_bytes_match_np_mod(order, x, data):
    # int64 representatives far outside [0, L); the difference of two stays
    # inside int64
    g = CyclicGroup(order)
    y = data.draw(hnp.arrays(np.int64, x.shape, elements=st.integers(-2**62, 2**62)))
    for a, b in ((x, y), (y, x), (x, 0), (0, x)):
        assert _same_bits(difference(g, a, b), _old_difference(g, a, b))
    for a, b in zip(x.ravel().tolist(), y.ravel().tolist()):
        assert _same_bits(difference(g, a, b), _old_difference(g, a, b))


@given(st.sampled_from([U1] + [CyclicGroup(L) for L in (2, 3, 4, 5, 7, 1000)]),
       st.booleans(), hnp.array_shapes(min_dims=0, max_dims=2, max_side=5), st.data())
def test_round_to_group_bytes_match_np_mod(group, real, shape, data):
    parts = hnp.arrays(np.float64, shape, elements=_EDGE_ANGLES)
    z = data.draw(parts)
    if not real:
        z = z.astype(np.complex128)  # keeps the signbit of each real part
        z.imag = data.draw(parts)
    assert _same_bits(round_to_group(group, z), _old_round(group, z))
    for w in z.ravel().tolist():
        assert _same_bits(round_to_group(group, w), _old_round(group, w))


# Test-side copy of the reduction that ran fmod on every value: skipping it
# inside (-m, m) must keep every bit, NaN and +-inf included.

def _old_residue(d, modulus):
    np.fmod(d, modulus, out=d)
    d += (d < 0) * modulus


_INT64 = np.iinfo(np.int64)


def _guard_edges(modulus):
    """Values at and around the edges of (-m, m), and the extremes of the dtype."""
    if isinstance(modulus, int):
        m = modulus
        vals = [0, 1, -1, m, -m, m - 1, -(m - 1), m + 1, -(m + 1), 2 * m, -2 * m,
                _INT64.min, _INT64.max, _INT64.min + 1, _INT64.max - 1]
        return np.array(vals, dtype=np.int64)
    m = modulus
    vals = [0.0, -0.0, m, -m, np.nextafter(m, 0), -np.nextafter(m, 0), np.nextafter(m, np.inf),
            -np.nextafter(m, np.inf), m - 1, -(m - 1), 2 * m, -2 * m, 5e-324, -5e-324,
            1e300, -1e300, np.inf, -np.inf, np.nan]
    return np.array(vals)


@pytest.mark.parametrize("modulus", [2, 3, 5, 1000, TWO_PI], ids=str)
def test_residue_guard_edges_match_fmod_everywhere(modulus):
    edges = _guard_edges(modulus)
    cases = [edges, edges[:0], edges.reshape(-1, 1)]
    cases += [edges[i:i + 1].reshape(()) for i in range(edges.size)]  # each value 0-d
    cases += [np.delete(edges, i) for i in range(edges.size)]  # one value missing
    # all-inside arrays skip fmod; one value on or past an edge brings it back
    inside = edges[np.abs(edges) < modulus]
    cases += [inside] + [np.append(inside, v) for v in edges]
    for d in cases:
        got, want = d.copy(), d.copy()
        with np.errstate(invalid="ignore"):  # fmod(+-inf) is NaN
            _residue(got, modulus)
            _old_residue(want, modulus)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_difference_guard_edges_both_groups():
    # through the public arithmetic: edge representatives against np.mod
    for order in (2, 3, 5, 1000):
        g = CyclicGroup(order)
        edges = _guard_edges(order)
        for x in (edges, edges[:0], np.asarray(edges[3])):
            assert _same_bits(difference(g, x, 0), _old_difference(g, x, 0))
        reps = np.array([0, 1, order - 1, order, -order, -(order - 1)], dtype=np.int64)
        a, b = np.meshgrid(reps, reps)
        assert _same_bits(difference(g, a, b), _old_difference(g, a, b))
    edges = _guard_edges(TWO_PI)
    with np.errstate(invalid="ignore"):
        for x in (edges, edges[:0], np.asarray(-0.0), np.asarray(TWO_PI)):
            for a, b in ((x, 0), (0, x), (x, -0.0)):
                assert _same_bits(difference(U1, a, b), _old_difference(U1, a, b))


_REAL_FIELD = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0]),
    st.floats(-1e300, 1e300, allow_subnormal=True),
)


@given(st.integers(2, 24), hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2,
                                                                   max_side=6),
                                      elements=_REAL_FIELD))
def test_round_real_field_closed_form(order, x):
    # a real field skips the angle: it must give what the complex path gives
    # on x + 0j, the old kernel, and the brute-force oracle where it is clear
    g = CyclicGroup(order)
    got = round_to_group(g, x)
    assert _same_bits(got, round_to_group(g, x + 0j))
    assert _same_bits(got, _old_round(g, x.astype(np.complex128)))
    assert _same_bits(round_to_group(g, x.astype(np.complex128)), got)
    for w in x.ravel().tolist():
        assert _same_bits(round_to_group(g, w), _old_round(g, complex(w)))
    small = np.abs(x) < 1e3
    xs = np.where(small, x, 0.0)
    expect, gap = _table_round(g, xs)
    clear = small & (gap > 1e-12 * (1.0 + xs ** 2))
    assert np.array_equal(np.asarray(got)[clear], expect[clear])


def test_round_real_field_signed_zero_and_sides():
    for order in range(2, 25):
        g = CyclicGroup(order)
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 3.0, -3.0])
        assert np.array_equal(round_to_group(g, x), [0, 0, 0, order // 2, 0, order // 2])
        assert round_to_group(g, -0.0) == 0 and type(round_to_group(g, -0.0)) is np.int64


@pytest.mark.parametrize("group", [Z2, CyclicGroup(3), Z5, CyclicGroup(24)], ids=str)
def test_round_refuses_non_finite_on_both_branches(group):
    bad_real = [np.nan, np.inf, -np.inf]
    bad_complex = [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
                   complex(0.0, -np.inf), complex(np.inf, np.inf), complex(np.nan, np.nan)]
    for v in bad_real + bad_complex:
        for z in (v, np.array([1.0, v]), np.array([[v]])):
            with pytest.raises(ValidationError, match="non-finite"):
                round_to_group(group, z)
    # U(1) keeps its mapping: the phase of NaN is NaN
    assert np.isnan(round_to_group(U1, np.nan)) and np.isnan(round_to_group(U1, complex(np.nan, 0)))


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
    lhs = character(g, _compose(g, x, y))
    assert abs(lhs - character(g, x) * character(g, y)) <= 1e-12


@given(st.integers(2, 24), hnp.array_shapes(min_dims=0, max_dims=2, max_side=6), st.data())
def test_character_matches_canonical_table_lookup(order, shape, data):
    # character looks the table up with mode="wrap" instead of a modulo pass
    g = CyclicGroup(order)
    x = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(-3 * order, 3 * order)))
    got = character(g, x)
    want = character_table(g)[_canonicalize(g, x)]
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(character(g, x.tolist()), want)  # Python ints and lists


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_character_is_a_homomorphism_circle(x, y):
    lhs = character(U1, _compose(U1, x, y))
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
    assert np.array_equal(m.T, difference(Z5, 0, m))
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
                assert _compose(Z5, m[i, j], m[j, k]) == m[i, k]


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
    assert loss_values(Z5, -1, 4) == 0.0  # compared mod L
    assert loss_values(Z5, 7, 2) == 0.0 and loss_values(Z5, 7, 3) == 1.0


@pytest.mark.parametrize("group", _CYCLIC, ids=str)
def test_loss_values_reproduces_old_mismatch(group):
    # a nonzero difference is the old canonicalize-both-then-compare mismatch,
    # bit for bit: on Haar pairs, on representatives outside [0, L) and on scalars
    order = group.order
    rng = stream(21, "loss", order)
    t = haar_sample(group, (50, 50), rng)
    e = np.where(rng.random((50, 50)) < 0.5, t, haar_sample(group, (50, 50), rng))
    assert _same_bits(loss_values(group, t, e), _mismatch(group, t, e))
    shifts = rng.integers(-3, 4, size=(2, 50, 50)) * order
    assert _same_bits(loss_values(group, t + shifts[0], e + shifts[1]), _mismatch(group, t, e))
    reps = np.arange(-2 * order, 2 * order + 1)
    a, b = np.meshgrid(reps, reps)
    assert _same_bits(loss_values(group, a, b), _mismatch(group, a, b))
    assert _same_bits(loss_values(group, a.tolist(), b.tolist()), _mismatch(group, a, b))
    for x, y in ((-1, order - 1), (order, 0), (-order, order), (1, order + 2), (3, 3)):
        assert _same_bits(loss_values(group, x, y), _mismatch(group, x, y))


def test_average_loss_basics():
    x = haar_sample(Z5, 12, stream(7, "avg"))
    m = pairwise_matrix(Z5, x)
    assert average_loss(Z5, m, m) == 0.0
    assert average_loss(Z5, m, difference(Z5, m, 1)) == 1.0
    with pytest.raises(ValidationError):
        average_loss(Z5, m, m[:5, :5])
    with pytest.raises(ValidationError):
        average_loss(Z5, np.zeros(3), np.zeros(3))
    for group in (Z5, U1):
        with pytest.raises(ValidationError):
            average_loss(group, np.zeros((0, 0)), np.zeros((0, 0)))


@given(st.integers(2, 24), st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_cyclic_average_loss_is_the_old_mean(order, n, agree, seed):
    # the mismatch count over n^2 is the double np.mean gave on the n^2 0/1
    # floats, for canonical and for non-canonical representatives
    g = CyclicGroup(order)
    rng = np.random.default_rng(seed)
    t = haar_sample(g, (n, n), rng)
    e = np.where(rng.random((n, n)) < agree, t, haar_sample(g, (n, n), rng))
    shifts = rng.integers(-3, 4, size=(2, n, n)) * order
    for a, b in ((t, e), (t + shifts[0], e + shifts[1]), (t, e + shifts[1])):
        got = average_loss(g, a, b)
        want = float(np.mean(_mismatch(g, a, b)))
        assert type(got) is float and got.hex() == want.hex()


def test_average_loss_translation_invariance():
    # relabeling every element by a common left shift preserves pairwise differences
    g = Z5
    x = haar_sample(g, 20, stream(8, "shift"))
    m1 = pairwise_matrix(g, x)
    m2 = pairwise_matrix(g, _compose(g, x, 2))
    assert np.array_equal(m1, m2)
    a = haar_sample(U1, 20, stream(8, "shift-u1"))
    assert np.allclose(np.cos(pairwise_matrix(U1, a) -
                              pairwise_matrix(U1, _compose(U1, a, 1.234))),
                      1.0, atol=1e-12)


def test_average_loss_independent_angles_near_one():
    # E[1 - cos(U - V)] = 1 for independent uniform angles
    rng = stream(9, "indep")
    a = haar_sample(U1, 100, rng)
    b = haar_sample(U1, 100, rng)
    val = average_loss(U1, pairwise_matrix(U1, a), pairwise_matrix(U1, b))
    assert abs(val - 1.0) <= 0.05
