"""Top eigenpair extraction, resolvent solves, and exact rank-one cross-checks.

The estimator pipeline only needs the top eigenpair of a dense Hermitian
matrix and its gap to the second eigenvalue, so only the top two eigenpairs
are computed (LAPACK's MRRR subset routine after the tridiagonal reduction).
The rank-one structure gives two independent routes to the same quantities:
the outlier eigenvalue solves the secular equation
v* (zI - W)^{-1} v = 1/theta, and the top eigenvector is proportional to
(lambda I - W)^{-1} v.  Both are implemented against linear solves so they can
cross-check the eigensolver, plus an isotropic local-law residual diagnostic.

Dense linear algebra runs on scipy's BLAS only.  numpy and scipy may each
bundle their own BLAS, each with its own thread pool; a numpy matrix product
between two scipy factorizations wakes the second pool, which then competes
with the first for the cores.  This is the one module that calls BLAS on
matrices, so the rule lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BracketError, SingularShiftError
from .limits import semicircle_cauchy_transform
from .matrices import HermitianMatrix

SOLVE_RTOL = 1e-10
UNIT_TOL = 1e-8
LOCAL_LAW_EDGE_MARGIN = 0.1
# Lower end of the secular bracket above lambda_max(W).  This fixed margin is
# also the outlier decision: a root closer to the edge is reported as "no
# outlier".  ROADMAP item 5 plans to replace it with a decision in units of
# n^{-2/3}.
SECULAR_MARGIN = 0.05
SECULAR_STEP_RTOL = 4e-16
SECULAR_MAX_STEPS = 100


@dataclass(frozen=True)
class SpectralEstimate:
    """Top eigenpair with the gap to the second eigenvalue.

    ``eigenvector`` is unit and phase-fixed (largest-modulus entry real
    positive).  ``overlap_sq`` is |<eigenvector, v>|^2 against the planted
    vector when one was supplied, else None.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    gap: float
    overlap_sq: float | None = None


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-modulus entry is real positive.

    Ties take the lowest index (argmax returns the first maximizer), making
    the output independent of which unit-phase representative the eigensolver
    produced.
    """
    vec = np.asarray(vec)
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if pivot == 0:
        raise ValueError("cannot fix the phase of the zero vector")
    if not np.iscomplexobj(vec):
        return vec.copy() if pivot > 0 else -vec
    return vec * np.conj(pivot / abs(pivot))


def overlap_sq(u: np.ndarray, v: np.ndarray) -> float:
    """Squared modulus of the inner product of two unit vectors, |<u, v>|^2.

    Invariant under phase rotation of either argument; defensively normalized
    so the result stays in [0, 1] up to rounding.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"vectors must share a common 1-D shape, got {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("overlap with the zero vector is undefined")
    return float(abs(np.vdot(u, v)) ** 2 / (nu * nu * nv * nv))


def top_eigenpair(h: HermitianMatrix, planted: np.ndarray | None = None) -> SpectralEstimate:
    """Largest eigenpair and its gap, computing only the top two eigenpairs.

    ``HermitianMatrix`` already guarantees finite entries, so scipy's own
    finiteness scan is skipped.
    """
    n = h.n
    if n < 2:
        raise ValueError("need n >= 2 for a top eigenpair with a gap")
    vals, vecs = scipy.linalg.eigh(h.entries, subset_by_index=[n - 2, n - 1],
                                   driver="evr", check_finite=False)
    vec = fix_phase(vecs[:, -1])
    ov = overlap_sq(vec, planted) if planted is not None else None
    return SpectralEstimate(eigenvalue=float(vals[-1]), eigenvector=vec,
                            gap=float(vals[-1] - vals[-2]), overlap_sq=ov)


def _entries(w) -> np.ndarray:
    return w.entries if isinstance(w, HermitianMatrix) else np.asarray(w)


def resolvent_solve(w, z: complex, b: np.ndarray) -> np.ndarray:
    """Solve (zI - W) x = b for a vector b by LU, verifying the residual.

    Raises SingularShiftError when the relative residual exceeds 1e-10, which
    is how shifts too close to spec(W) are detected, and ValueError for a
    non-finite shift or a b of any shape but (n,).  A zero b returns zeros of
    the dtype a nonzero b of the same dtype would give.
    """
    wm = _entries(w)
    b = np.asarray(b)
    n = wm.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} is not the vector shape ({n},)")
    if not np.isfinite(complex(z)):
        raise ValueError(f"shift z = {z} must be finite")
    complex_shift = np.iscomplexobj(wm) or complex(z).imag != 0.0
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        a_dtype = np.complex128 if complex_shift else np.float64
        return np.zeros(b.shape, dtype=np.result_type(a_dtype, b.dtype))
    if complex_shift:
        a = np.asarray(z * np.eye(n, dtype=np.complex128) - wm)
    else:
        a = float(np.real(z)) * np.eye(n) - np.real(wm)
    x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a, check_finite=False), b,
                              check_finite=False)
    # a x - b on the BLAS that did the LU.  a is C-ordered, so BLAS gets a.T,
    # which it reads in place, with the transpose flag set.
    gemv = scipy.linalg.get_blas_funcs("gemv", (a, x))
    r = gemv(1.0, a.T, x, beta=-1.0, y=b, trans=1)
    rel = np.linalg.norm(r) / norm_b
    if not np.isfinite(rel) or rel > SOLVE_RTOL:
        raise SingularShiftError(
            f"shift z = {z} is too close to the spectrum (relative residual {rel:.3e})")
    return x


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector")
    return v


def secular_root(w, v: np.ndarray, theta: float) -> float:
    """Solve v* (zI - W)^{-1} v = 1/theta for the outlier location.

    With m(z) = v* R(z) v, the bracket is [lambda_max(W) + SECULAR_MARGIN,
    lambda_max(W) + theta + 1]; the upper end is safe because
    m(z) <= 1/(z - lambda_max) forces the root below lambda_max + theta.  A
    missing sign change of m - 1/theta over the bracket raises BracketError,
    which is the subcritical "no outlier" signal.

    The root is then found by Newton's method on 1/m(z) - theta from the
    lower end (Bunch, Nielsen & Sorensen 1978).  To the right of the spectrum
    1/m is increasing and concave, so the iterates rise to the root without
    passing it.  Each step costs one solve x = R(z) v, since
    m'(z) = -||x||^2.  The loop stops at the first step below
    SECULAR_STEP_RTOL * |z|, a negative step from rounding at the root
    included, and raises RuntimeError after SECULAR_MAX_STEPS steps.
    """
    wm = _entries(w)
    v = _check_unit(v, "v")
    theta = float(theta)
    if not 0.0 < theta < np.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    n = wm.shape[0]
    lam_top = float(scipy.linalg.eigvalsh(wm, subset_by_index=[n - 1, n - 1],
                                          driver="evr")[0])
    lo, hi = lam_top + SECULAR_MARGIN, lam_top + theta + 1.0

    def solve(z: float):
        x = resolvent_solve(wm, z, v)
        return x, float(np.real(np.vdot(v, x)))

    x, m = solve(lo)
    flo = m - 1.0 / theta
    fhi = solve(hi)[1] - 1.0 / theta
    if not (flo > 0.0 > fhi):
        raise BracketError(
            f"no outlier: f has no sign change over [{lo:.6g}, {hi:.6g}] "
            f"(f(lo) = {flo:.3e}, f(hi) = {fhi:.3e})")
    z = lo
    for _ in range(SECULAR_MAX_STEPS):
        step = m * (theta * m - 1.0) / float(np.real(np.vdot(x, x)))
        if step <= SECULAR_STEP_RTOL * abs(z):
            return z
        z += step
        x, m = solve(z)
    raise RuntimeError(f"secular_root: no convergence in {SECULAR_MAX_STEPS} Newton steps "
                       f"(z = {z!r}, last step {step:.3e})")


def eigvec_via_resolvent(w, eigval: float, v: np.ndarray) -> np.ndarray:
    """Top eigenvector of theta*vv* + W from the noise resolvent alone.

    The rank-one identity makes R_W(lambda) v proportional to the spike
    eigenvector; the output is normalized and phase-fixed like
    ``top_eigenpair``.  The residual check of ``resolvent_solve`` rejects
    shifts inside the spectrum.
    """
    v = _check_unit(v, "v")
    x = resolvent_solve(w, float(eigval), v)
    return fix_phase(x / np.linalg.norm(x))


def local_law_residual(w, z: complex, x: np.ndarray, y: np.ndarray) -> float:
    """|x* R_W(z) y - G(z) <x, y>| with G the semicircle Cauchy transform.

    For Wigner noise this isotropic residual decays like n^{-1/2} at fixed z
    outside the bulk.  Shifts with Re(z) <= 2 + ``LOCAL_LAW_EDGE_MARGIN`` (0.1)
    are refused.
    """
    z = complex(z)
    if z.real <= 2.0 + LOCAL_LAW_EDGE_MARGIN:
        raise ValueError(f"Re(z) = {z.real} is inside the guarded spectral region "
                         f"(need > {2.0 + LOCAL_LAW_EDGE_MARGIN})")
    x = _check_unit(x, "x")
    y = _check_unit(y, "y")
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    r = resolvent_solve(w, z, y)
    val = np.vdot(x, r) - semicircle_cauchy_transform(z) * np.vdot(x, y)
    return float(abs(val))
