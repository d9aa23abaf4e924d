import numpy as np
import pytest

from spikesim.ensembles import sample_gue
from spikesim.matrices import CHECK_BYTES, HermitianMatrix, symmetrize
from spikesim.rng import stream

import reference


def test_symmetrize_is_exactly_hermitian():
    rng = stream(1, "sym")
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    s = symmetrize(a)
    assert np.array_equal(s, s.conj().T)
    r = symmetrize(rng.standard_normal((13, 13)))
    assert np.array_equal(r, r.T)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128],
                         ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("n", [1, 2, 5, 80, 301])
def test_symmetrize_matches_out_of_place_reference(dtype, n):
    rng = stream(2, "sym-bits", n)
    real = np.finfo(dtype).dtype
    # signed zeros, subnormals, exact ties and large values among the draws
    tiny, big = np.finfo(real).smallest_subnormal, np.finfo(real).max / 2
    special = np.array([0.0, -0.0, tiny, -tiny, 1.0, -1.0, big, -big], dtype=real)
    a = np.empty((n, n), dtype=dtype)
    for part in ((a.real, a.imag) if np.issubdtype(dtype, np.complexfloating) else (a,)):
        part[...] = rng.standard_normal((n, n))
        mask = rng.random((n, n)) < 0.25
        part[mask] = rng.choice(special, size=mask.sum())
    for inp in (a, np.asfortranarray(a), a.T):
        want = reference.symmetrize(inp)
        got = symmetrize(inp)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got.view(real)), np.signbit(want.view(real)))


def test_construction_and_flags():
    h = HermitianMatrix(np.array([[2.0, 1.0], [1.0, -1.0]]))
    assert h.n == 2 and h.entries.dtype == np.float64
    c = HermitianMatrix(np.array([[1.0, 1j], [-1j, 0.0]]))
    assert c.entries.dtype == np.complex128
    i = HermitianMatrix(np.eye(3, dtype=np.int64))
    assert i.entries.dtype == np.float64


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[1j, 0.0], [0.0, 0.0]]))  # complex diagonal
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([["a", "b"], ["b", "a"]], dtype=object))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=lambda d: np.dtype(d).name)
def test_blocked_checks_match_whole_array_checks(dtype):
    # several row blocks: one bad entry anywhere, on either side of a block
    # edge, is caught as the whole-array checks catch it, and a non-finite
    # entry is reported before an asymmetry in an earlier block
    n = 301
    rows = CHECK_BYTES // (n * np.dtype(dtype).itemsize)
    assert 2 <= n // rows <= 20
    rng = stream(3, "blocked", np.dtype(dtype).name)
    a = symmetrize(rng.standard_normal((n, n)).astype(dtype))
    HermitianMatrix(a)
    edges = sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows, n // 2, n - 2, n - 1})
    asymmetric = a.copy()
    asymmetric[0, 1] += 1.0
    for i in edges:
        for j in edges:
            bad = a.copy()
            bad[i, j] += 1.0 if i != j else 1.0j if dtype == np.complex128 else np.nan
            assert not np.array_equal(bad, bad.conj().T) or not np.isfinite(bad).all()
            with pytest.raises(ValueError):
                HermitianMatrix(bad)
            bad = asymmetric.copy()
            bad[i, j] = np.inf
            with pytest.raises(ValueError, match="finite"):
                HermitianMatrix(bad)


def test_hermitian_check_peak_memory(traced_peak):
    # in units of 16 n^2 bytes: the whole-array checks built an n x n
    # conjugate copy and an n x n mask (1.11); a row block's copy of at most
    # CHECK_BYTES and numpy's comparison buffer need about 0.15 at n = 400
    n = 400
    w = sample_gue(n, 0).entries
    assert traced_peak(HermitianMatrix, w) / (16 * n * n) <= 0.15


def test_from_nearly_hermitian():
    rng = stream(2, "near")
    a = rng.standard_normal((10, 10))
    a = a + a.T + 1e-16 * rng.standard_normal((10, 10))
    h = HermitianMatrix(symmetrize(a))
    assert np.array_equal(h.entries, h.entries.T)
