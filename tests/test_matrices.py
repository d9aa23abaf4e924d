import numpy as np
import pytest

from spikesim.matrices import HermitianMatrix, symmetrize
from spikesim.rng import stream


def test_symmetrize_is_exactly_hermitian():
    rng = stream(1, "sym")
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    s = symmetrize(a)
    assert np.array_equal(s, s.conj().T)
    r = symmetrize(rng.standard_normal((13, 13)))
    assert np.array_equal(r, r.T)


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


def test_from_nearly_hermitian():
    rng = stream(2, "near")
    a = rng.standard_normal((10, 10))
    a = a + a.T + 1e-16 * rng.standard_normal((10, 10))
    h = HermitianMatrix(symmetrize(a))
    assert np.array_equal(h.entries, h.entries.T)
