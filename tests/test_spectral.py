"""Eigenpair extraction and the resolvent cross-checks.

The rank-one structure gives closed forms for small cases (diagonal noise,
zero noise), and the secular/resolvent routes must agree with the dense
eigensolver to near machine precision on random instances.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spikesim.spectral
from spikesim import (
    BracketError,
    HermitianMatrix,
    SingularShiftError,
    SpikeConfig,
    build_spiked,
    eigvec_via_resolvent,
    fix_phase,
    local_law_residual,
    outlier_eigenvalue,
    overlap_sq,
    resolvent_solve,
    sample_goe,
    sample_gue,
    secular_root,
    semicircle_cauchy_transform,
    stream,
    top_eigenpair,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# ------------------------------------------------------------- top eigenpair

def test_top_eigenpair_diagonal():
    est = top_eigenpair(HermitianMatrix(np.diag([3.0, 1.0])))
    assert est.eigenvalue == pytest.approx(3.0, abs=1e-14)
    assert est.gap == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(np.abs(est.eigenvector), [1.0, 0.0], atol=1e-14)
    assert est.eigenvector[0] > 0  # phase convention
    assert est.overlap_sq is None


def test_top_eigenpair_rank_one():
    v = unit([1.0, 2.0, 2.0])
    est = top_eigenpair(HermitianMatrix(2.0 * np.outer(v, v)), planted=v)
    assert est.eigenvalue == pytest.approx(2.0, abs=1e-14)
    assert est.gap == pytest.approx(2.0, abs=1e-13)
    assert est.overlap_sq == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(est.eigenvector, v, atol=1e-13)


def test_top_eigenpair_needs_dimension_two():
    with pytest.raises(ValueError):
        top_eigenpair(HermitianMatrix(np.array([[1.0]])))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_top_eigenpair_dominates_diagonal(seed):
    # Rayleigh quotient with a basis vector: lambda_max >= max_i H_ii
    w = sample_goe(6, seed)
    est = top_eigenpair(w)
    assert est.eigenvalue >= np.max(np.diag(w.entries)) - 1e-12
    assert np.linalg.norm(est.eigenvector) == pytest.approx(1.0, abs=1e-12)
    assert est.gap >= 0.0


def _noise_and_signal(n, field, seed):
    if field == "R":
        v = stream(seed, "signal").standard_normal(n)
        w = sample_goe(n, stream(seed, "noise"))
    else:
        g = stream(seed, "signal")
        v = g.standard_normal(n) + 1j * g.standard_normal(n)
        w = sample_gue(n, stream(seed, "noise"))
    return w, v / np.linalg.norm(v)


def _spiked_instance(n, field, seed, theta=2.0):
    w, v = _noise_and_signal(n, field, seed)
    return build_spiked(SpikeConfig(theta=theta, v=v), w)


def _assert_matches_full_eigh(h):
    # the subset eigensolver against the full dense reference it replaced
    vals, vecs = np.linalg.eigh(h.entries)
    est = top_eigenpair(h)
    tol = 1e-12 * max(1.0, abs(vals[-1]))
    assert abs(est.eigenvalue - vals[-1]) <= tol
    assert abs(est.gap - (vals[-1] - vals[-2])) <= tol
    if est.gap > 1e-8:
        assert np.max(np.abs(est.eigenvector - fix_phase(vecs[:, -1]))) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 50, 400])
@pytest.mark.parametrize("field", ["R", "C"])
def test_top_eigenpair_matches_full_eigh(n, field):
    h = _spiked_instance(n, field, seed=n)
    assert h.is_real == (field == "R")
    _assert_matches_full_eigh(h)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.sampled_from(["R", "C"]),
       st.floats(min_value=0.0, max_value=4.0), st.integers(min_value=0, max_value=10 ** 9))
def test_top_eigenpair_matches_full_eigh_random(n, field, theta, seed):
    _assert_matches_full_eigh(_spiked_instance(n, field, seed, theta))


def test_top_eigenpair_tied_top_eigenvalue():
    est = top_eigenpair(HermitianMatrix(np.eye(4)))
    assert est.eigenvalue == pytest.approx(1.0, abs=1e-14)
    assert est.gap == 0.0
    assert np.linalg.norm(est.eigenvector) == pytest.approx(1.0, abs=1e-14)


# ----------------------------------------------------------------- fix_phase

def test_fix_phase_real():
    assert np.array_equal(fix_phase(np.array([-2.0, 1.0])), [2.0, -1.0])
    assert np.array_equal(fix_phase(np.array([2.0, 1.0])), [2.0, 1.0])
    # tie on |entries|: the first maximizer is the pivot
    assert np.array_equal(fix_phase(np.array([-1.0, 1.0])), [1.0, -1.0])


def test_fix_phase_complex():
    out = fix_phase(np.array([2.0j, 1.0]))
    assert out[0] == pytest.approx(2.0, abs=1e-15)
    assert out[1] == pytest.approx(-1.0j, abs=1e-15)
    rot = np.exp(0.7j) * np.array([0.6, 0.8j])
    fixed = fix_phase(rot)
    assert fixed[1].real == pytest.approx(0.8, abs=1e-15)
    assert abs(fixed[1].imag) < 1e-15


def test_fix_phase_idempotent_and_zero():
    v = fix_phase(np.array([0.3 - 0.4j, 0.5j]))
    assert np.allclose(fix_phase(v), v, atol=1e-15)
    with pytest.raises(ValueError):
        fix_phase(np.zeros(3))


def test_overlap_sq_basics():
    e1 = np.array([1.0, 0.0])
    assert overlap_sq(e1, np.array([0.0, 1.0])) == 0.0
    assert overlap_sq(e1, np.exp(1.3j) * e1.astype(complex)) == pytest.approx(1.0, abs=1e-15)
    assert overlap_sq(e1, unit([1.0, 1.0])) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        overlap_sq(e1, np.zeros(2))
    with pytest.raises(ValueError):
        overlap_sq(e1, np.ones(3))


# ------------------------------------------------------------------ resolvent

def test_resolvent_zero_noise():
    n = 5
    b = np.arange(1.0, n + 1)
    x = resolvent_solve(np.zeros((n, n)), 2.0, b)
    assert np.allclose(x, b / 2.0, atol=1e-14)
    xc = resolvent_solve(np.zeros((n, n)), 1.0 + 1.0j, b)
    assert np.allclose(xc, b / (1.0 + 1.0j), atol=1e-14)


def test_resolvent_diagonal():
    w = np.diag([1.0, -1.0])
    x = resolvent_solve(w, 2.0, np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0 / 3.0], atol=1e-14)


def test_resolvent_zero_rhs_and_shape_check():
    w = sample_goe(8, 0).entries
    assert np.all(resolvent_solve(w, 3.0, np.zeros(8)) == 0.0)
    with pytest.raises(ValueError):
        resolvent_solve(w, 3.0, np.ones(9))


@pytest.mark.parametrize("shape", [(8, 1), (8, 3), ()], ids=["column", "matrix", "scalar"])
def test_resolvent_refuses_non_vector_rhs(shape):
    w = sample_goe(8, 0).entries
    for b in (np.ones(shape), np.zeros(shape)):
        with pytest.raises(ValueError, match="is not the vector shape"):
            resolvent_solve(w, 3.0, b)


@pytest.mark.parametrize("sampler", [sample_goe, sample_gue])
@pytest.mark.parametrize("z", [3.0, 3.0 + 0.5j])
@pytest.mark.parametrize("b_dtype", [np.float64, np.complex128, np.float32, np.complex64,
                                     np.int64])
def test_resolvent_zero_rhs_dtype_matches_nonzero(sampler, z, b_dtype):
    w = sampler(8, 0).entries
    zero = resolvent_solve(w, z, np.zeros(8, dtype=b_dtype))
    assert np.all(zero == 0.0)
    assert zero.dtype == resolvent_solve(w, z, np.ones(8, dtype=b_dtype)).dtype


def _direct_lu_solve(w, z, b):
    """Reference: LU of zI - W built in the dtype the shift needs, no residual check."""
    n = w.shape[0]
    if np.iscomplexobj(w) or complex(z).imag != 0.0:
        a = z * np.eye(n, dtype=np.complex128) - w
    else:
        a = float(z) * np.eye(n) - w
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("z", [2.7, 2.7 + 0.4j])
@pytest.mark.parametrize("rhs", ["real-vector", "complex-vector"])
def test_resolvent_solve_matches_direct_lu_bits(field, z, rhs):
    n = 60
    w = (sample_goe if field == "R" else sample_gue)(n, 21).entries
    rng = stream(21, "rhs")
    b = rng.standard_normal(n)
    if rhs.startswith("complex"):
        b = b + 1j * rng.standard_normal(n)
    b_before = b.copy()
    x = resolvent_solve(w, z, b)
    ref = _direct_lu_solve(w, z, b)
    assert x.dtype == ref.dtype and x.shape == ref.shape
    assert np.array_equal(x, ref)
    assert np.array_equal(b, b_before)


def test_resolvent_rejects_shift_in_spectrum():
    n = 50
    for sampler in (sample_goe, sample_gue):
        w = sampler(n, 2)
        lam_top = float(np.linalg.eigvalsh(w.entries)[-1])
        with pytest.raises(SingularShiftError, match="too close to the spectrum"):
            resolvent_solve(w, lam_top, unit(np.ones(n)))


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, complex(3.0, np.nan),
                               complex(np.inf, 1.0)])
def test_resolvent_refuses_non_finite_shift(z):
    w = sample_goe(8, 0).entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            resolvent_solve(w, z, np.ones(8))
        with pytest.raises(ValueError, match="must be finite"):
            resolvent_solve(w, z, np.zeros(8))


def test_first_resolvent_identity():
    # R(z1) - R(z2) = (z2 - z1) R(z1) R(z2), applied to a vector
    w = sample_gue(50, 3)
    v = unit(np.ones(50))
    z1, z2 = 3.0, 4.0 + 0.5j
    x1 = resolvent_solve(w, z1, v)
    x2 = resolvent_solve(w, z2, v)
    chained = (z2 - z1) * resolvent_solve(w, z1, resolvent_solve(w, z2, v))
    assert np.allclose(x1 - x2, chained, atol=1e-8)


# -------------------------------------------------------------- secular root

def test_secular_root_zero_noise():
    # v* (zI)^{-1} v = 1/z, so the root is exactly theta
    n = 10
    v = unit(np.ones(n))
    for theta in (1.3, 2.0, 5.0):
        root = secular_root(np.zeros((n, n)), v, theta)
        assert root == pytest.approx(theta, abs=1e-10)


def test_secular_root_matches_eigensolver():
    n = 120
    theta = 2.0
    v = unit(np.ones(n))
    w = sample_goe(n, 8)
    h = build_spiked(SpikeConfig(theta=theta, v=v), w)
    lam = top_eigenpair(h).eigenvalue
    root = secular_root(w.entries, v, theta)
    assert abs(root - lam) < 1e-8
    # and both sit near the deterministic outlier location
    assert abs(lam - outlier_eigenvalue(theta)) < 0.5


def test_secular_root_subcritical_raises():
    n = 200
    v = unit(np.ones(n))
    w = sample_goe(n, 9)
    with pytest.raises(BracketError):
        secular_root(w.entries, v, 0.5)


def _bisect_secular_root(w, v, theta):
    """Slow reference: bisection to 1e-12 on the default bracket, then one Newton polish."""
    wm = np.asarray(w)
    lam_top = float(np.linalg.eigvalsh(wm)[-1])
    lo, hi = lam_top + 0.05, lam_top + theta + 1.0

    def f_and_slope(z):
        x = resolvent_solve(wm, z, v)
        return float(np.real(np.vdot(v, x))) - 1.0 / theta, -float(np.real(np.vdot(x, x)))

    if not f_and_slope(lo)[0] > 0.0 > f_and_slope(hi)[0]:
        return None
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f_and_slope(mid)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    fz, slope = f_and_slope(z)
    return z - fz / slope


@pytest.fixture
def solve_shifts(monkeypatch):
    """Record the shift of every resolvent solve made through the module."""
    shifts = []
    solve = spikesim.spectral.resolvent_solve

    def recording_solve(wm, z, b):
        shifts.append(z)
        return solve(wm, z, b)

    monkeypatch.setattr(spikesim.spectral, "resolvent_solve", recording_solve)
    return shifts


def _assert_newton_root(w, v, theta, shifts):
    """Newton root against the slow reference and full eigvalsh of the spiked matrix."""
    ref = _bisect_secular_root(w.entries, v, theta)
    shifts.clear()
    if ref is None:
        with pytest.raises(BracketError):
            secular_root(w, v, theta)
        assert len(shifts) == 2
        return None
    root = secular_root(w, v, theta)
    lam = float(np.linalg.eigvalsh(build_spiked(SpikeConfig(theta=theta, v=v), w).entries)[-1])
    tol = 1e-12 * max(1.0, abs(lam))
    assert abs(root - ref) <= tol
    assert abs(root - lam) <= tol
    # after the bracket ends, the iterates rise strictly from the lower end
    # and never pass the root
    rising = [shifts[0]] + shifts[2:]
    assert np.all(np.diff(rising) > 0.0)
    assert rising[-1] <= root + tol
    assert len(shifts) <= 12
    return root


@pytest.mark.parametrize("n", [2, 3, 10, 40, 200])
@pytest.mark.parametrize("field", ["R", "C"])
def test_secular_root_newton_matches_reference(n, field, solve_shifts):
    found = 0
    for seed in range(2):
        w, v = _noise_and_signal(n, field, seed)
        for theta in (0.5, 1.2, 2.0, 10.0):
            found += _assert_newton_root(w, v, theta, solve_shifts) is not None
    assert found >= 4  # theta >= 2 clears the bracket margin at these sizes


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=2, max_value=9), st.sampled_from(["R", "C"]),
       st.floats(min_value=0.1, max_value=50.0), st.integers(min_value=0, max_value=10 ** 9))
def test_secular_root_newton_matches_reference_random(solve_shifts, n, field, theta, seed):
    w, v = _noise_and_signal(n, field, seed)
    _assert_newton_root(w, v, theta, solve_shifts)


def test_secular_root_step_cap_raises(monkeypatch):
    n = 40
    w, v = _noise_and_signal(n, "R", 10)
    monkeypatch.setattr(spikesim.spectral, "SECULAR_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="no convergence"):
        secular_root(w, v, 3.0)


@pytest.mark.parametrize("sampler", [sample_goe, sample_gue])
def test_secular_root_default_bracket_matches_full_eigvalsh(sampler, monkeypatch):
    n, theta = 60, 2.0
    v = unit(np.ones(n))
    w = sampler(n, 12)
    lam_top = float(np.linalg.eigvalsh(w.entries)[-1])
    shifts = []
    solve = spikesim.spectral.resolvent_solve

    def recording_solve(wm, z, b):
        shifts.append(z)
        return solve(wm, z, b)

    monkeypatch.setattr(spikesim.spectral, "resolvent_solve", recording_solve)
    secular_root(w, v, theta)
    # the first two solves evaluate f at the bracket ends
    assert abs(shifts[0] - (lam_top + 0.05)) <= 1e-12
    assert abs(shifts[1] - (lam_top + theta + 1.0)) <= 1e-12


def test_secular_root_argument_validation():
    v = unit(np.ones(6))
    with pytest.raises(ValueError):
        secular_root(np.zeros((6, 6)), v, 0.0)
    for theta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            secular_root(np.zeros((6, 6)), v, theta)
    with pytest.raises(ValueError):
        secular_root(np.zeros((6, 6)), np.ones(6), 1.5)  # not unit


# ----------------------------------------------------- eigenvector via solve

def test_eigvec_via_resolvent_matches_eigensolver():
    n = 100
    theta = 2.5
    v = unit(np.ones(n))
    for seed, sampler in ((11, sample_goe), (12, sample_gue)):
        w = sampler(n, seed)
        vc = v.astype(np.complex128) if not w.is_real else v
        h = build_spiked(SpikeConfig(theta=theta, v=vc), w)
        est = top_eigenpair(h)
        u = eigvec_via_resolvent(w.entries, est.eigenvalue, vc)
        assert overlap_sq(u, est.eigenvector) > 1.0 - 1e-10
        # both are phase-fixed, so they agree entrywise
        assert np.allclose(u, est.eigenvector, atol=1e-6)


# -------------------------------------------------- stability and invariance

def test_eigenpair_invariant_under_conjugation():
    n = 40
    v = unit(np.ones(n))
    h = build_spiked(SpikeConfig(theta=2.0, v=v), sample_goe(n, 14))
    q, _ = np.linalg.qr(stream(14, "conj").standard_normal((n, n)))
    rotated = HermitianMatrix((q @ h.entries @ q.T + (q @ h.entries @ q.T).T) / 2.0)
    a = top_eigenpair(h)
    b = top_eigenpair(rotated)
    assert abs(a.eigenvalue - b.eigenvalue) < 1e-8
    assert overlap_sq(b.eigenvector, q @ a.eigenvector) > 1.0 - 1e-8


def test_eigenvalue_perturbation_bound():
    # Weyl: moving H by E moves lambda_max by at most ||E||; the eigenvector
    # moves by O(||E|| / gap)
    rng = stream(15, "perturb")
    h = HermitianMatrix(np.diag([3.0, 1.0, 0.7, 0.2, -0.5]))
    e = 1e-3 * HermitianMatrix((lambda a: (a + a.T) / 2.0)(rng.standard_normal((5, 5)))).entries
    base = top_eigenpair(h)
    moved = top_eigenpair(HermitianMatrix(h.entries + e))
    enorm = float(np.linalg.norm(e, 2))
    assert abs(moved.eigenvalue - base.eigenvalue) <= enorm + 1e-12
    sin_sq = 1.0 - overlap_sq(moved.eigenvector, base.eigenvector)
    assert sin_sq <= (2.0 * enorm / base.gap) ** 2


# ---------------------------------------------------------------- local law

def test_local_law_residual_zero_noise_closed_form():
    # W = 0: x* R y = <x, y>/z, so the residual is |<x,y>| * |1/z - G(z)|
    n = 30
    rng = stream(16, "ll")
    x = unit(rng.standard_normal(n))
    y = unit(rng.standard_normal(n))
    z = 2.5
    expect = abs(np.vdot(x, y)) * abs(1.0 / z - semicircle_cauchy_transform(z))
    got = local_law_residual(np.zeros((n, n)), z, x, y)
    assert got == pytest.approx(expect, rel=1e-12)


def test_local_law_guard_region():
    w = sample_goe(20, 17).entries
    v = unit(np.ones(20))
    with pytest.raises(ValueError):
        local_law_residual(w, 2.05, v, v)
    with pytest.raises(ValueError):
        local_law_residual(w, 1.0 + 3.0j, v, v)  # real part governs the guard
    local_law_residual(w, 2.2, v, v)  # just outside the guard is fine


def test_local_law_argument_validation():
    w = np.zeros((10, 10))
    v = unit(np.ones(10))
    with pytest.raises(ValueError):
        local_law_residual(w, 2.5, 2.0 * v, v)
    with pytest.raises(ValueError):
        local_law_residual(w, 2.5, v, unit(np.ones(11)))


def test_local_law_residual_small_for_wigner():
    n = 500
    rng = stream(18, "ll-sanity")
    x = unit(rng.standard_normal(n))
    y = unit(rng.standard_normal(n))
    res = local_law_residual(sample_goe(n, 18), 2.5, x, y)
    assert res < 0.05  # typical size is n^{-1/2} times an O(1) constant
