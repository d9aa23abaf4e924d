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
    ValidationError,
    build_spiked,
    eigvec_via_resolvent,
    fix_phase,
    haar_sample,
    local_law_residual,
    outlier_eigenvalue,
    overlap_sq,
    parse_group,
    resolvent_solve,
    sample_goe,
    sample_gue,
    sample_truth_or_haar,
    secular_root,
    semicircle_cauchy_transform,
    stream,
    sync_observation_matrix,
    top_eigenpair,
)

import reference


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
        assert np.max(np.abs(est.eigenvector - reference.fix_phase(vecs[:, -1]))) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 50, 400])
@pytest.mark.parametrize("field", ["R", "C"])
def test_top_eigenpair_matches_full_eigh(n, field):
    h = _spiked_instance(n, field, seed=n)
    assert h.entries.dtype == (np.float64 if field == "R" else np.complex128)
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


def _real_case(kind, n):
    """A real n×n H of one of the kinds the harness solves."""
    if kind == "goe":
        return sample_goe(n, stream(n, "route", "goe"))
    if kind == "spiked":
        return _spiked_instance(n, "R", seed=n)
    z2 = parse_group("Z/2")
    x = haar_sample(z2, n, stream(n, "route", "x"))
    return sync_observation_matrix(z2, sample_truth_or_haar(z2, x, 0.3, stream(n, "route", "y")))


def _assert_route_bits(h):
    """top_eigenpair has the bits of scipy's eigh on a copy of H and leaves
    H's bytes as they were."""
    n = h.n
    before = h.entries.copy()
    vals, vecs = scipy.linalg.eigh(h.entries.copy(), subset_by_index=[n - 2, n - 1],
                                   driver="evr", check_finite=False)
    est = top_eigenpair(h)
    assert est.eigenvalue == vals[-1] and est.gap == vals[-1] - vals[-2]
    assert est.eigenvector.tobytes() == fix_phase(vecs[:, -1]).tobytes()
    assert h.entries.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 400])
@pytest.mark.parametrize("kind", ["goe", "spiked", "z2-sync"])
def test_top_eigenpair_in_place_route_bits(kind, n):
    # n spans the edges of the restore's RESTORE_ROWS-row blocks
    h = _real_case(kind, n)
    assert spikesim.spectral._in_place_ok(h.entries)
    _assert_route_bits(h)


def _fallback_case(case):
    n = 6
    g = sample_goe(2 * n, stream(23, "fallback")).entries
    if case == "signed-zero-pair":
        a = g[:n, :n].copy()
        a[0, 1], a[1, 0] = 0.0, -0.0
        return HermitianMatrix(a)
    if case == "exact-zeros":
        return HermitianMatrix(np.diag(np.arange(1.0, n + 1.0)))
    if case == "read-only":
        a = g[:n, :n].copy()
        a.setflags(write=False)
        return HermitianMatrix(a)
    if case == "strided-view":
        return HermitianMatrix(g[::2, ::2])
    return sample_gue(n, stream(23, "fallback"))


@pytest.mark.parametrize("case", ["signed-zero-pair", "exact-zeros", "read-only",
                                  "strided-view", "complex"])
def test_top_eigenpair_copy_route_bits(case):
    # any H the in-place route cannot give back bit for bit is solved in a copy
    h = _fallback_case(case)
    assert not spikesim.spectral._in_place_ok(h.entries)
    _assert_route_bits(h)


def test_top_eigenpair_restores_h_when_eigh_raises(monkeypatch):
    h = _real_case("spiked", 65)
    before = h.entries.copy()

    def scribbling_eigh(a, **kwargs):
        # LAPACK's share of the work: a.T's lower triangle and diagonal
        assert kwargs["overwrite_a"] and np.shares_memory(a, h.entries)
        a[np.tril_indices(a.shape[0])] = np.nan
        raise RuntimeError("eigh failed")

    monkeypatch.setattr(scipy.linalg, "eigh", scribbling_eigh)
    with pytest.raises(RuntimeError, match="eigh failed"):
        top_eigenpair(h)
    assert h.entries.tobytes() == before.tobytes()


def test_top_eigenpair_peak_memory(traced_peak):
    # in units of 8 n^2 bytes: a real H is solved in place (0.11 traced; a
    # copy of H for LAPACK would add 1.0)
    n = 400
    h = _real_case("spiked", n)
    assert traced_peak(top_eigenpair, h) / (8 * n * n) <= 0.25


def test_spiked_eigensolve_peak_memory(traced_peak):
    # crosscheck's shape: W is kept for the secular root while H = theta vv* + W
    # is built and solved.  In units of 8 n^2 bytes, W, H and the sampler's or
    # the build's blocks peak at 2.2; a copy of H in the eigensolve adds 1.0
    n = 400

    def instance():
        v = unit(stream(25, "v").standard_normal(n))
        w = sample_goe(n, stream(25, "w"))
        top_eigenpair(build_spiked(SpikeConfig(theta=2.0, v=v), w))
        return w

    assert traced_peak(instance) / (8 * n * n) <= 2.3


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
    # the shift is read before a zero b returns early, so a zero b gets what a
    # nonzero one gets: zeros of the same dtype, or the refusal of a complex z
    w = sampler(8, 0).entries
    zero, one = np.zeros(8, dtype=b_dtype), np.ones(8, dtype=b_dtype)
    if isinstance(z, complex):
        for b in (zero, one):
            with pytest.raises(ValidationError, match="z must be a real number"):
                resolvent_solve(w, z, b)
        return
    x = resolvent_solve(w, z, zero)
    assert np.all(x == 0.0)
    assert x.dtype == resolvent_solve(w, z, one).dtype


def _rhs(n, rhs):
    rng = stream(21, "rhs")
    b = rng.standard_normal(n)
    if rhs.startswith("complex"):
        b = b + 1j * rng.standard_normal(n)
    return b


def _assert_solve_bits(w, z, b, solve):
    b_before = b.copy()
    x = resolvent_solve(w, z, b)
    ref = solve(w, z, b)
    assert x.dtype == ref.dtype and x.shape == ref.shape
    assert np.array_equal(x, ref)
    assert np.array_equal(b, b_before)


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("z", [2.7])
@pytest.mark.parametrize("rhs", ["real-vector", "complex-vector"])
def test_resolvent_solve_matches_direct_posv_bits(field, z, rhs):
    # a real shift above the spectrum is solved by one Cholesky ?posv
    n = 60
    w = (sample_goe if field == "R" else sample_gue)(n, 21).entries
    assert z > np.linalg.eigvalsh(w)[-1]
    _assert_solve_bits(w, z, _rhs(n, rhs), reference.posv_solve)


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("case", ["inside-spectrum", "not-hermitian"])
def test_resolvent_solve_refuses_shift_cholesky_cannot_solve(field, case):
    # Cholesky fails inside the spectrum ("not positive definite"), and on a
    # raw W that is not Hermitian it solves the matrix of one triangle, whose
    # residual against the whole W misses SOLVE_RTOL; both are refused
    n = 60
    w = (sample_goe if field == "R" else sample_gue)(n, 21).entries.copy()
    if case == "inside-spectrum":
        eigs = np.linalg.eigvalsh(w)
        k = int(np.argmax(np.diff(eigs[n // 4: 3 * n // 4]))) + n // 4
        z = 0.5 * (eigs[k] + eigs[k + 1])  # midway in a wide gap of the bulk
        why = "not positive definite"
    else:
        skew = stream(21, "skew").standard_normal(n * (n - 1) // 2)
        w[np.triu_indices(n, 1)] += 0.5 * skew / np.sqrt(n)
        z = 4.0
        why = "relative residual"
    for rhs in ("real-vector", "complex-vector"):
        with pytest.raises(SingularShiftError, match=why):
            resolvent_solve(w, z, _rhs(n, rhs))
    if case == "inside-spectrum":
        # R(z) v at an interior z is no multiple of the spike eigenvector
        v = unit(stream(21, "v").standard_normal(n)).astype(w.dtype)
        with pytest.raises(SingularShiftError, match=why):
            eigvec_via_resolvent(w, z, v)


@pytest.mark.parametrize("path", ["cholesky"])
def test_resolvent_real_w_complex_rhs_matches_numpy(path):
    # a real shift over a real W solves [Re b, Im b] as two real columns
    n = 60
    w = sample_goe(n, 21).entries
    z = np.linalg.eigvalsh(w)[-1] + 0.5
    b = _rhs(n, "complex-vector")
    b_before = b.copy()
    x = resolvent_solve(w, z, b)
    want = np.linalg.solve(z * np.eye(n) - w, b)
    assert x.dtype == np.complex128 and x.shape == (n,)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert np.array_equal(b, b_before)


@pytest.mark.parametrize("path, bound", [("cholesky", 1.5)])
def test_resolvent_real_w_complex_rhs_peak_memory(path, bound, traced_peak):
    # in units of 8 n^2 bytes (one real n×n array): zI - W is the one working
    # copy, factored in place by Cholesky.  Complex LAPACK and BLAS would cast
    # the real matrix to complex (2 units) for each call
    n = 400
    w = sample_goe(n, 24).entries
    b = _rhs(n, "complex-vector")
    z = np.linalg.eigvalsh(w)[-1] + 0.5
    assert traced_peak(resolvent_solve, w, z, b) / (8 * n * n) <= bound


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
    # a complex shift, finite or not, is refused as no real number
    w = sample_goe(8, 0).entries
    error = "z must be a real number" if isinstance(z, complex) else "must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=error):
            resolvent_solve(w, z, np.ones(8))
        with pytest.raises(ValueError, match=error):
            resolvent_solve(w, z, np.zeros(8))


def test_first_resolvent_identity():
    # R(z1) - R(z2) = (z2 - z1) R(z1) R(z2), applied to a vector, at two real
    # shifts above spec(W)
    w = sample_gue(50, 3)
    v = unit(np.ones(50))
    z1, z2 = 3.0, 4.5
    assert z1 > np.linalg.eigvalsh(w.entries)[-1]
    x1 = resolvent_solve(w, z1, v)
    x2 = resolvent_solve(w, z2, v)
    chained = (z2 - z1) * resolvent_solve(w, z1, resolvent_solve(w, z2, v))
    assert np.allclose(x1 - x2, chained, atol=1e-8)


@pytest.mark.parametrize("route, name", [
    (lambda w, z, v: resolvent_solve(w, z, v), "z"),
    (lambda w, z, v: eigvec_via_resolvent(w, z, v), "eigval"),
    (lambda w, z, v: local_law_residual(w, z, v, v), "z"),
], ids=["resolvent_solve", "eigvec_via_resolvent", "local_law_residual"])
def test_shift_routes_read_the_shift_by_one_rule(route, name):
    # every shift is read by checked_real: no string, bool, None or complex
    # gets through, and a numpy real gives the bits of the builtin float
    n = 50
    w = sample_goe(n, stream(25, "w"))
    v = unit(stream(25, "v").standard_normal(n))
    for z in ("2.5", True, None, 2.5 + 0j):
        with pytest.raises(ValidationError, match=f"^{name} must be a real number"):
            route(w, z, v)
    assert np.array_equal(route(w, np.float64(2.5), v), route(w, 2.5, v))


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


@pytest.fixture
def solve_shifts(monkeypatch):
    """Record, in call order, the shift of every evaluation of the secular
    function made through the module: the dense resolvent solves of the
    bracket ends and the tridiagonal solves of the Newton iterates."""
    shifts = []
    solve = spikesim.spectral.resolvent_solve
    tridiagonal_solve = spikesim.spectral._tridiagonal_solve

    def recording_solve(wm, z, b):
        shifts.append(z)
        return solve(wm, z, b)

    def recording_tridiagonal_solve(d, e, z, u):
        shifts.append(z)
        return tridiagonal_solve(d, e, z, u)

    monkeypatch.setattr(spikesim.spectral, "resolvent_solve", recording_solve)
    monkeypatch.setattr(spikesim.spectral, "_tridiagonal_solve", recording_tridiagonal_solve)
    return shifts


def _assert_newton_root(w, v, theta, shifts):
    """Newton root against the slow reference and full eigvalsh of the spiked matrix."""
    ref = reference.secular_root(w.entries, v, theta)
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
    found = stepped = 0
    for seed in range(2):
        w, v = _noise_and_signal(n, field, seed)
        for theta in (0.5, 1.2, 2.0, 10.0):
            if _assert_newton_root(w, v, theta, solve_shifts) is not None:
                found += 1
                stepped += len(solve_shifts) > 2
    assert found >= 4  # theta >= 2 clears the bracket margin at these sizes
    assert stepped == found  # every root took Newton steps, so the checks saw them


def _complex_signal_on_real_noise(n, seed):
    w, _ = _noise_and_signal(n, "R", seed)
    g = stream(seed, "complex-signal")
    v = g.standard_normal(n) + 1j * g.standard_normal(n)
    return w, v / np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 2, 3, 40, 200])
@pytest.mark.parametrize("case", ["GOE", "GUE", "GOE-complex-v"])
def test_tridiagonal_secular_function_matches_resolvent(n, case):
    # m(z) and ||R(z) v||^2 from one reduction W = Q T Q* against dense
    # resolvent solves of W itself, at shifts above the spectrum
    if case == "GOE-complex-v":
        w, v = _complex_signal_on_real_noise(n, n)
    else:
        w, v = _noise_and_signal(n, "R" if case == "GOE" else "C", n)
    d, e, u = spikesim.spectral._tridiagonal(w.entries, v)
    eigs = np.linalg.eigvalsh(w.entries)
    tol = 1e-12 * max(1.0, np.max(np.abs(eigs)))
    assert np.max(np.abs(scipy.linalg.eigvalsh_tridiagonal(d, e) - eigs)) <= tol
    for z in eigs[-1] + np.array([0.05, 0.5, 3.0, 20.0]):
        x = spikesim.spectral._tridiagonal_solve(d, e, z, u)
        ref = resolvent_solve(w, z, v)
        m_ref = float(np.real(np.vdot(v, ref)))
        assert abs(float(np.vdot(u, x)) - m_ref) <= 1e-12 * m_ref
        assert abs(float(np.vdot(x, x)) / float(np.real(np.vdot(ref, ref))) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [3, 40, 200])
def test_secular_root_complex_v_on_real_w(n, solve_shifts):
    found = 0
    for seed in range(2):
        w, v = _complex_signal_on_real_noise(n, seed)
        for theta in (0.5, 2.0, 10.0):
            found += _assert_newton_root(w, v, theta, solve_shifts) is not None
    assert found >= 4


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
def test_secular_root_default_bracket_matches_full_eigvalsh(sampler, solve_shifts):
    n, theta = 60, 2.0
    v = unit(np.ones(n))
    w = sampler(n, 12)
    lam_top = float(np.linalg.eigvalsh(w.entries)[-1])
    secular_root(w, v, theta)
    # the first two solves evaluate f at the bracket ends
    assert abs(solve_shifts[0] - (lam_top + 0.05)) <= 1e-12
    assert abs(solve_shifts[1] - (lam_top + theta + 1.0)) <= 1e-12


@pytest.mark.parametrize("sampler", [sample_goe, sample_gue])
def test_secular_root_peak_memory(sampler, traced_peak):
    # one n×n working copy at a time: the reduction's, then each bracket
    # factorization's; a copy of the reflectors for Q* v would read about 2.1
    n = 400
    w = sampler(n, stream(23, "w"))
    v = unit(stream(23, "v").standard_normal(n)).astype(w.entries.dtype)
    assert traced_peak(secular_root, w, v, 2.0) / w.entries.nbytes <= 1.5


def test_secular_root_argument_validation():
    v = unit(np.ones(6))
    with pytest.raises(ValueError):
        secular_root(np.zeros((6, 6)), v, 0.0)
    for theta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            secular_root(np.zeros((6, 6)), v, theta)
    with pytest.raises(ValueError):
        secular_root(np.zeros((6, 6)), np.ones(6), 1.5)  # not unit


def test_secular_root_refuses_raw_w_that_is_not_hermitian(monkeypatch):
    # the tridiagonal reduction reads one triangle while each bracket solve
    # reads both (the Cholesky factor one, its residual against W both), so a
    # raw w that is not exactly Hermitian is refused before any solve
    n = 200
    w = sample_goe(n, stream(19, "w")).entries.copy()
    w[np.triu_indices(n, 1)] += 0.5 / np.sqrt(n)
    v = unit(stream(19, "v").standard_normal(n))

    def no_solve(*args):
        raise AssertionError("resolvent solve reached")

    monkeypatch.setattr(spikesim.spectral, "resolvent_solve", no_solve)
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        secular_root(w, v, 2.0)
    with pytest.raises(ValueError, match="square"):
        secular_root(w[:, :-1], v, 2.0)
    w = np.zeros((n, n))
    w[3, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        secular_root(w, v, 2.0)


@pytest.mark.parametrize("route", [
    lambda w, v: secular_root(w, v, 2.0),
    lambda w, v: eigvec_via_resolvent(w, 3.0, v),
    lambda w, v: local_law_residual(w, 3.0, v, v),
], ids=["secular_root", "eigvec_via_resolvent", "local_law_residual"])
def test_rank_one_routes_read_raw_w_by_one_rule(route):
    # each route takes W as a HermitianMatrix or a raw array, and a raw array
    # passes the HermitianMatrix checks: eigvec_via_resolvent and
    # local_law_residual used to solve a non-symmetric Gaussian W without a word
    n = 50
    g = stream(23, "w").standard_normal((n, n))
    v = unit(stream(23, "v").standard_normal(n))
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        route(g, v)
    nan_w = np.zeros((n, n))
    nan_w[3, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        route(nan_w, v)
    w = HermitianMatrix((g + g.T) / np.sqrt(2 * n))
    assert np.array_equal(route(w.entries, v), route(w, v))


# ----------------------------------------------------- eigenvector via solve

def test_eigvec_via_resolvent_matches_eigensolver():
    n = 100
    theta = 2.5
    v = unit(np.ones(n))
    for seed, sampler in ((11, sample_goe), (12, sample_gue)):
        w = sampler(n, seed)
        vc = v.astype(w.entries.dtype)
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
        local_law_residual(w, 3.0 + 1.0j, v, v)  # a complex shift is no real number
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
