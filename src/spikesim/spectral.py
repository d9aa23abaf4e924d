"""Top eigenpair extraction, resolvent solves, and exact rank-one cross-checks.

The estimator pipeline only needs the top eigenpair of a dense Hermitian
matrix and its gap to the second eigenvalue, so only the top two eigenpairs
are computed (LAPACK's MRRR subset routine after the tridiagonal reduction).
The rank-one structure gives two independent routes to the same quantities:
the outlier eigenvalue solves the secular equation
v* (zI - W)^{-1} v = 1/theta, and the top eigenvector is proportional to
(lambda I - W)^{-1} v.  Both are implemented against linear solves so they can
cross-check the eigensolver, plus an isotropic local-law residual diagnostic.
Every shift of those routes is real and above spec(W), where zI - W is
positive definite, so every resolvent solve is one residual-checked Cholesky
factorization, and a shift it cannot solve is refused.  The secular root
decides "outlier or not" by two such solves at its bracket ends; its Newton
iterates run on one tridiagonal reduction W = Q T Q*, which reads only one
triangle of W, at O(n) per step.

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

from .errors import BracketError, SingularShiftError, checked_real
from .limits import semicircle_cauchy_transform
from .matrices import HermitianMatrix, _hermitian_entries

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
# rows per block of the restore after an in-place eigensolve, and the strict
# upper triangle of one diagonal block
RESTORE_ROWS = 64
_BLOCK_UPPER = np.triu(np.ones((RESTORE_ROWS, RESTORE_ROWS), dtype=bool), 1)


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


def _in_place_ok(a: np.ndarray) -> bool:
    """Whether LAPACK may solve the real ``a`` in place, with the bits of a
    copy and an exact restore.

    LAPACK reads the C-ordered a as a.T, whose lower triangle is a's upper
    one, while a copy hands it a's lower one.  The two agree by value in any
    ``HermitianMatrix``; with no zero entry, where +0 and -0 are equal but
    differ in sign, they agree bit for bit, and so does the restore.
    """
    return (a.dtype == np.float64 and a.flags.writeable and a.flags.c_contiguous
            and bool(a.all()))


def _mirror_lower(a: np.ndarray, diag: np.ndarray) -> None:
    """Write a's strict lower triangle over its strict upper one, then
    ``diag`` onto the diagonal, by blocks of RESTORE_ROWS rows."""
    n = a.shape[0]
    for lo in range(0, n, RESTORE_ROWS):
        hi = min(n, lo + RESTORE_ROWS)
        # rows lo:hi right of the block from columns lo:hi below it; the two
        # do not overlap in memory, so numpy copies straight across
        a[lo:hi, hi:] = a[hi:, lo:hi].T
        # block.T overlaps block, so numpy reads it from a copy of the block
        block = a[lo:hi, lo:hi]
        np.copyto(block, block.T, where=_BLOCK_UPPER[:hi - lo, :hi - lo])
    a.reshape(-1)[:: n + 1] = diag


def top_eigenpair(h: HermitianMatrix, planted: np.ndarray | None = None) -> SpectralEstimate:
    """Largest eigenpair and its gap, computing only the top two eigenpairs.

    ``HermitianMatrix`` already guarantees finite entries, so scipy's own
    finiteness scan is skipped.

    A real H whose entries are writeable, C-contiguous and free of exact
    zeros is solved in place, with no n×n copy: LAPACK reads it as H.T, which
    equals H, and overwrites one triangle and the diagonal.  Before the call
    returns, also by an exception, H gets them back bit for bit from its
    other triangle and a saved diagonal; the result has the bits of the copy
    route.  Meanwhile H holds LAPACK's work, so no other thread may read it
    during the call.  Any other H, complex ones included, is solved in
    scipy's copy.
    """
    n = h.n
    if n < 2:
        raise ValueError("need n >= 2 for a top eigenpair with a gap")
    a = h.entries
    subset = dict(subset_by_index=[n - 2, n - 1], driver="evr", check_finite=False)
    if _in_place_ok(a):
        diag = a.diagonal().copy()
        try:
            vals, vecs = scipy.linalg.eigh(a.T, overwrite_a=True, **subset)
        finally:
            _mirror_lower(a, diag)
    else:
        vals, vecs = scipy.linalg.eigh(a, **subset)
    vec = fix_phase(vecs[:, -1])
    ov = overlap_sq(vec, planted) if planted is not None else None
    return SpectralEstimate(eigenvalue=float(vals[-1]), eigenvector=vec,
                            gap=float(vals[-1] - vals[-2]), overlap_sq=ov)


def _entries(w) -> np.ndarray:
    return w.entries if isinstance(w, HermitianMatrix) else np.asarray(w)


def _checked_entries(w) -> np.ndarray:
    return w.entries if isinstance(w, HermitianMatrix) else _hermitian_entries(w)


def _shifted(wm: np.ndarray, z: float, dtype) -> np.ndarray:
    """zI - W in ``dtype``, C-ordered, without an n×n identity.

    The off-diagonal is 0 - W, not -W, so a zero of W gives +0 there, as in
    z*eye(n) - W for a z with no negative part.
    """
    a = np.subtract(0.0, wm, dtype=dtype)
    a.reshape(-1)[:: a.shape[0] + 1] += z
    return a


def _product(alpha: float, a: np.ndarray, x: np.ndarray, beta: float, y: np.ndarray):
    """alpha A x + beta y on scipy's BLAS, for one column x (?gemv) or more
    (?gemm), in a copy of y.  A is C-ordered, so BLAS gets A.T, which it
    reads in place, with the transpose flag set."""
    if x.ndim == 1:
        gemv = scipy.linalg.get_blas_funcs("gemv", (a, x))
        return gemv(alpha, a.T, x, beta=beta, y=y, trans=1)
    gemm = scipy.linalg.get_blas_funcs("gemm", (a, x))
    return gemm(alpha, a.T, x, beta=beta, c=y, trans_a=1)


def resolvent_solve(w, z: float, b: np.ndarray) -> np.ndarray:
    """Solve (zI - W) x = b for a real shift z above spec(W) and a vector b.

    zI - W is built once and factored in place by one Cholesky ``?posv``,
    which succeeds when it is positive definite, as it is for Hermitian W
    and z above spec(W); the residual z x - W x - b, which reads both
    triangles of W, is then taken against W itself.  A real W takes a
    complex b as the two real columns [Re b, Im b] of one real solve:
    complex LAPACK and BLAS would each cast the real n x n matrix to complex.

    Raises SingularShiftError where Cholesky reports "not positive definite"
    or the relative residual exceeds SOLVE_RTOL: a shift inside spec(W) or
    too close to it, or a raw W that is not Hermitian.  Raises
    ValidationError for a z that is not a real number (complex ones
    included), and ValueError for a non-finite z or a b of any shape but
    (n,).  A zero b returns zeros of the dtype a nonzero b of the same dtype
    would give.
    """
    wm = _entries(w)
    b = np.asarray(b)
    n = wm.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} is not the vector shape ({n},)")
    z = checked_real(z, "z")
    if not np.isfinite(z):
        raise ValueError(f"shift z = {z} must be finite")
    cplx = np.iscomplexobj(wm)
    dtype = np.complex128 if cplx else np.float64
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        return np.zeros(b.shape, dtype=np.result_type(dtype, b.dtype))
    split = not cplx and np.iscomplexobj(b)
    rhs = np.column_stack((b.real, b.imag)) if split else b
    a = _shifted(wm, z, dtype)
    # LAPACK reads the C-ordered a in place as a.T: the same matrix when a is
    # real symmetric, its conjugate when a is Hermitian, so there b goes in
    # and x comes out conjugated.
    posv = scipy.linalg.get_lapack_funcs("posv", (a, rhs))
    _, x, info = posv(a.T, rhs.conj() if cplx else rhs, lower=1, overwrite_a=1)
    refused = f"shift z = {z} is inside or too close to the spectrum, or W is not Hermitian"
    if info != 0:
        raise SingularShiftError(f"{refused} (zI - W is not positive definite, info {info})")
    if cplx:
        np.conjugate(x, out=x)
    # the factor overwrote a, so the residual is taken against W
    rel = np.linalg.norm(_product(-1.0, wm, x, 1.0, z * x - rhs)) / norm_b
    if not rel <= SOLVE_RTOL:
        raise SingularShiftError(f"{refused} (relative residual {rel:.3e})")
    # the columns [Re x, Im x], side by side in memory, are the parts of x
    return np.ascontiguousarray(x).view(np.complex128)[:, 0] if split else x


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector")
    return v


def _tridiagonal(wm: np.ndarray, v: np.ndarray):
    """(d, e, u): W = Q T Q* by one ?sytrd/?hetrd, and u = Q* v.

    T is real symmetric tridiagonal, with diagonal d and subdiagonal e, for
    real and complex W alike.  u holds real columns, [Q* v] or
    [Re Q* v, Im Q* v], so that v* (zI - W)^{-1} v = u · (zI - T)^{-1} u.
    The reduction reads one triangle of W.
    """
    n = wm.shape[0]
    cplx = np.iscomplexobj(wm)
    trd, trd_lwork = scipy.linalg.get_lapack_funcs(
        ("hetrd", "hetrd_lwork") if cplx else ("sytrd", "sytrd_lwork"), (wm,))
    lwork, _ = trd_lwork(n, lower=1)
    # LAPACK reads the C-ordered W as W.T, which is conj(W) when W is
    # Hermitian; conj(W) = Q T Q* gives the same u · (zI - T)^{-1} u with Q*
    # applied to conj(v)
    c, d, e, tau, _ = trd(wm.T, lower=1, lwork=int(np.real(lwork)))
    if cplx:
        u = np.conj(v).astype(np.complex128)[:, None]
    else:
        u = np.column_stack((v.real, v.imag) if np.iscomplexobj(v) else (v,))
        u = u.astype(np.float64, copy=False)
    if n > 1:
        # Q = H(1) ... H(n-1), each reflector stored below the subdiagonal:
        # ?ormtr for the lower triangle, which is ?ormqr on c[1:, :n-1].  That
        # slice is strided, so f2py would copy it; the n×(n-1) window of the
        # Fortran-ordered c that starts at c[1, 0] is contiguous and holds
        # the same reflectors with leading dimension n.  Its last row, which
        # wraps into the next column, is never read: Q* acts on n-1 rows.
        refl = c.reshape(-1, order="F")[1:1 + n * (n - 1)].reshape(n, n - 1, order="F")
        mqr = scipy.linalg.get_lapack_funcs("unmqr" if cplx else "ormqr", (c,))
        # the minimal workspace, one entry per column, runs the unblocked loop
        u[1:], _, info = mqr("L", "C" if cplx else "T", refl, tau, u[1:], u.shape[1])
        if info != 0:
            raise RuntimeError(f"?ormqr/?unmqr failed (info {info})")
    return d, e, u.view(np.float64) if cplx else u


def _tridiagonal_solve(d: np.ndarray, e: np.ndarray, z: float, u: np.ndarray) -> np.ndarray:
    """(zI - T)^{-1} u by one O(n) ?ptsv, for z above spec(T)."""
    if d.size == 1:
        return u / (z - d[0])
    ptsv = scipy.linalg.get_lapack_funcs("ptsv", (d,))
    _, _, x, info = ptsv(z - d, -e, u)
    if info != 0:
        raise RuntimeError(f"zI - T is not positive definite at z = {z!r} (info {info})")
    return x


def secular_root(w, v: np.ndarray, theta: float) -> float:
    """Solve v* (zI - W)^{-1} v = 1/theta for the outlier location.

    One reduction W = Q T Q* gives lambda_max(W) = lambda_max(T) and
    m(z) = v* R(z) v = u · (zI - T)^{-1} u with u = Q* v.  The bracket is
    [lambda_max + SECULAR_MARGIN, lambda_max + theta + 1]; the upper end is
    safe because m(z) <= 1/(z - lambda_max) forces the root below
    lambda_max + theta.  Both ends are evaluated by ``resolvent_solve`` on W
    itself, the residual-checked Cholesky route.  A missing sign change of
    m - 1/theta over the bracket raises BracketError, which is the
    subcritical "no outlier" signal.

    The root is then found by Newton's method on 1/m(z) - theta from the
    lower end (Bunch, Nielsen & Sorensen 1978).  To the right of the spectrum
    1/m is increasing and concave, so the iterates rise to the root without
    passing it.  Each iterate costs one O(n) tridiagonal solve
    x = (zI - T)^{-1} u, and m'(z) = -||x||^2 (Golub 1973).  The loop stops
    at the first step below SECULAR_STEP_RTOL * |z|, a negative step from
    rounding at the root included, and raises RuntimeError after
    SECULAR_MAX_STEPS steps.

    Cost per root: one reduction (about (4/3) n^3 flops real) and Q* v, two
    Cholesky factorizations of zI - W, and O(n) per Newton iterate.

    A raw array ``w`` must pass the ``HermitianMatrix`` checks (ValueError
    otherwise): the reduction reads one triangle while each bracket solve
    reads both (the Cholesky factor reads one, its residual is taken against
    all of W), so for any other w the bracket and the root come from
    different matrices.
    """
    wm = _checked_entries(w)
    v = _check_unit(v, "v")
    theta = checked_real(theta, "theta")
    if not 0.0 < theta < np.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    n = wm.shape[0]
    d, e, u = _tridiagonal(wm, v)
    lam_top = float(scipy.linalg.eigvalsh_tridiagonal(
        d, e, select="i", select_range=(n - 1, n - 1), check_finite=False)[0])
    lo, hi = lam_top + SECULAR_MARGIN, lam_top + theta + 1.0

    x = resolvent_solve(wm, lo, v)
    m = float(np.real(np.vdot(v, x)))
    flo = m - 1.0 / theta
    fhi = float(np.real(np.vdot(v, resolvent_solve(wm, hi, v)))) - 1.0 / theta
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
        x = _tridiagonal_solve(d, e, z, u)
        m = float(np.vdot(u, x))
    raise RuntimeError(f"secular_root: no convergence in {SECULAR_MAX_STEPS} Newton steps "
                       f"(z = {z!r}, last step {step:.3e})")


def eigvec_via_resolvent(w, eigval: float, v: np.ndarray) -> np.ndarray:
    """Top eigenvector of theta*vv* + W from the noise resolvent alone.

    The rank-one identity makes R_W(lambda) v proportional to the spike
    eigenvector for a real eigval above spec(W); the output is normalized and
    phase-fixed like ``top_eigenpair``.  An eigval inside spec(W) or too close
    to it raises SingularShiftError from ``resolvent_solve``, one that is not
    a real number a ValidationError; a raw ``w`` must pass the
    ``HermitianMatrix`` checks.
    """
    wm = _checked_entries(w)
    v = _check_unit(v, "v")
    x = resolvent_solve(wm, checked_real(eigval, "eigval"), v)
    return fix_phase(x / np.linalg.norm(x))


def local_law_residual(w, z: float, x: np.ndarray, y: np.ndarray) -> float:
    """|x* R_W(z) y - G(z) <x, y>| with G the semicircle Cauchy transform.

    For Wigner noise this isotropic residual decays like n^{-1/2} at a fixed
    real z outside the bulk.  A z that is not a real number (complex ones
    included) raises ValidationError; z <= 2 + ``LOCAL_LAW_EDGE_MARGIN``
    (0.1) is refused, and so is a raw ``w`` that fails the
    ``HermitianMatrix`` checks.
    """
    wm = _checked_entries(w)
    z = checked_real(z, "z")
    if z <= 2.0 + LOCAL_LAW_EDGE_MARGIN:
        raise ValueError(f"z = {z} is inside the guarded spectral region "
                         f"(need > {2.0 + LOCAL_LAW_EDGE_MARGIN})")
    x = _check_unit(x, "x")
    y = _check_unit(y, "y")
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    r = resolvent_solve(wm, z, y)
    val = np.vdot(x, r) - semicircle_cauchy_transform(z) * np.vdot(x, y)
    return float(abs(val))
