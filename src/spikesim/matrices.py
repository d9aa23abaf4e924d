"""Hermitian matrix container with construction-time checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# bytes of entries per row block of the Hermitian check: its finite mask and
# conjugate copy stay near this size whatever n is
CHECK_BYTES = 1 << 17


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a*)/2, which is exactly conjugate-symmetric in IEEE floats.

    Floating addition is commutative and conjugation is exact, so the (i, j)
    and (j, i) results are exact conjugates; dividing by 2 is exact.  The
    result is one new C-ordered array: a* is written into it, then a is added
    and the sum halved in place, which gives the bits of the out-of-place
    (a + a*) / 2.
    """
    a = np.asarray(a)
    out = np.conjugate(a.T, out=np.empty(a.shape, dtype=np.result_type(a, 2.0)))
    out += a
    out /= 2.0
    return out


def _hermitian_entries(entries) -> np.ndarray:
    """``entries`` as float64 or complex128, checked square, nonempty, finite
    and exactly conjugate-symmetric; raises ValueError otherwise.

    The checks of ``HermitianMatrix``, for callers that take a raw array and
    build no wrapper.  No copy is made when the dtype already fits, and each
    check runs over blocks of rows against the matching blocks of columns.
    """
    a = np.asarray(entries)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"entries must be a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    if np.issubdtype(a.dtype, np.complexfloating):
        a = a.astype(np.complex128, copy=False)
    elif np.issubdtype(a.dtype, np.floating) or np.issubdtype(a.dtype, np.integer):
        a = a.astype(np.float64, copy=False)
    else:
        raise ValueError(f"unsupported dtype {a.dtype}")
    rows = max(1, CHECK_BYTES // a[0].nbytes)
    blocks = range(0, a.shape[0], rows)
    if not all(np.isfinite(a[lo:lo + rows]).all() for lo in blocks):
        raise ValueError("entries must be finite")
    # rows lo:hi right of column lo against the conjugated columns lo:hi below
    # row lo: every pair i <= j once, with no n x n copy
    if not all(np.array_equal(a[lo:lo + rows, lo:], a[lo:, lo:lo + rows].conj().T)
               for lo in blocks):
        raise ValueError("entries are not exactly conjugate-symmetric")
    return a


@dataclass(frozen=True)
class HermitianMatrix:
    """A dense Hermitian matrix, validated on construction.

    ``entries`` must satisfy entries[j, i] == conj(entries[i, j]) exactly; use
    ``symmetrize`` first if the input is only Hermitian up to rounding.  The
    dtype of ``entries`` is the field: float64 for a real symmetric matrix,
    complex128 otherwise.  Treat instances as immutable.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _hermitian_entries(self.entries))

    @property
    def n(self) -> int:
        return self.entries.shape[0]
