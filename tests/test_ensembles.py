"""Noise ensemble samplers: symmetry, moments, determinism, sync model."""

import numpy as np
import pytest

from spikesim import (
    CyclicGroup,
    EnsembleSpec,
    HermitianMatrix,
    SpikeConfig,
    ValidationError,
    build_spiked,
    character,
    derive_key,
    difference,
    pairwise_matrix,
    parse_group,
    sample_ensemble,
    sample_goe,
    sample_gue,
    sample_generalized_wigner,
    sample_truth_or_haar,
    stream,
    symmetrize,
    sync_observation_matrix,
)
from spikesim.ensembles import ENTRY_LAWS, GAMMA_W, _unit_variance_draws
from spikesim.harness.universality import check_moment_match
from spikesim.groups import haar_sample, real_field
from spikesim.rng import as_generator

Z2 = parse_group("Z/2")
Z5 = parse_group("Z/5")
U1 = parse_group("U(1)")


# ---------------------------------------------------------------- spec checks

def test_spec_rejects_unknown_kind_and_law():
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="wishart", n=10)
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="generalized-wigner", n=10, entry_law="cauchy")
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="generalized-wigner", n=10)  # law required


def test_spec_field_constraints():
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="goe", n=10, field="C")
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="gue", n=10, field="R")
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="goe", n=10, entry_law="gaussian")
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="generalized-wigner", n=10, entry_law="gaussian", field="Q")


def test_spec_dimension_validation():
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="goe", n=0)
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="goe", n=2.5)
    spec = EnsembleSpec(kind="goe", n=7.0)
    assert spec.n == 7 and isinstance(spec.n, int)


def test_profile_row_sum_validation():
    n = 6
    prof = np.full((n, n), 1.0 / n)
    EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                 variance_profile=prof)  # flat rows sum to 1 exactly enough

    bad = prof.copy()
    bad[2, :] += 1e-3 / n
    bad[:, 2] = bad[2, :]
    with pytest.raises(ValidationError, match="sum to 1"):
        EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                     variance_profile=bad)


def _transfer_profile(n, scaled):
    """Flat profile with n*sigma^2_01 moved to ``scaled``; the surplus goes to
    the diagonal, so rows still sum to 1."""
    prof = np.full((n, n), 1.0 / n)
    delta = (1.0 - scaled) / n
    prof[0, 1] = prof[1, 0] = 1.0 / n - delta
    prof[0, 0] += delta
    prof[1, 1] += delta
    return prof


def test_profile_gamma_bounds():
    n = 8
    assert GAMMA_W == 10.0
    # n*sigma^2_01 = 0.05 lies below 1/GAMMA_W; 0.1 is exactly the loose edge
    with pytest.raises(ValidationError, match="n\\*sigma\\^2"):
        EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                     variance_profile=_transfer_profile(n, 0.05))
    EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                 variance_profile=_transfer_profile(n, 0.1))
    # a zero variance is refused
    with pytest.raises(ValidationError, match="n\\*sigma\\^2"):
        EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                     variance_profile=_transfer_profile(n, 0.0))
    with pytest.raises(ValidationError, match="nonnegative"):
        neg = np.full((n, n), 1.0 / n)
        neg[0, 1] = neg[1, 0] = -1.0 / n
        neg[0, 0] += 2.0 / n
        neg[1, 1] += 2.0 / n
        EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                     variance_profile=neg)


def test_profile_symmetry_and_shape_validation():
    n = 5
    asym = np.full((n, n), 1.0 / n)
    asym[0, 1] = 2.0 / n
    with pytest.raises(ValidationError, match="symmetric"):
        EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                     variance_profile=asym)
    with pytest.raises(ValidationError, match="shape"):
        EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                     variance_profile=np.full((n + 1, n + 1), 1.0 / (n + 1)))


# ------------------------------------------------------------------ gaussians

def test_goe_exact_symmetry_and_dtype():
    w = sample_goe(50, 0)
    assert w.entries.dtype == np.float64
    assert np.array_equal(w.entries, w.entries.T)


def test_goe_scalar_variances():
    # n = 1: the single entry is 2*g/sqrt(2), variance 2
    draws = np.array([sample_goe(1, derive_key(0, "goe1", i)).entries[0, 0]
                      for i in range(4000)])
    assert abs(draws.mean()) < 4.0 * draws.std() / np.sqrt(draws.size)
    assert abs(draws.var() - 2.0) < 0.15

    # pooled off-diagonal moments at n = 40
    offs = []
    iu = np.triu_indices(40, 1)
    for i in range(50):
        offs.append(sample_goe(40, derive_key(0, "goe40", i)).entries[iu])
    off = np.concatenate(offs)
    se = off.std(ddof=1) / np.sqrt(off.size)
    assert abs(off.mean()) <= 4.0 * se
    assert abs(off.var() - 1.0 / 40) < 0.002


def test_gue_hermitian_complex():
    w = sample_gue(50, 0)
    assert w.entries.dtype == np.complex128
    assert np.array_equal(w.entries, w.entries.conj().T)
    assert np.all(np.diag(w.entries).imag == 0)


def test_gue_entry_variances():
    # n = 1 reduces to a real N(0, 1) scalar
    draws = np.array([sample_gue(1, derive_key(0, "gue1", i)).entries[0, 0].real
                      for i in range(4000)])
    assert abs(draws.var() - 1.0) < 0.1

    n = 40
    iu = np.triu_indices(n, 1)
    offs = []
    for i in range(50):
        offs.append(sample_gue(n, derive_key(0, "gue40", i)).entries[iu])
    off = np.concatenate(offs)
    # E|W_12|^2 = 1/n, split evenly between the parts
    assert abs(np.mean(np.abs(off) ** 2) - 1.0 / n) < 0.002
    assert abs(np.mean(off.real ** 2) - 0.5 / n) < 0.002
    assert abs(np.mean(off.real * off.imag)) < 0.001


def test_spectral_norm_near_bulk_edge():
    for w in (sample_goe(1000, 7), sample_gue(500, 7)):
        vals = np.linalg.eigvalsh(w.entries)
        assert 1.8 <= max(abs(vals[0]), abs(vals[-1])) <= 2.2


# --------------------------------------------------------- generalized wigner

def flat_spec(n, law, field="R", kind="generalized-wigner"):
    return EnsembleSpec(kind=kind, n=n, entry_law=law, field=field)


def test_rademacher_entries_are_signs():
    n = 30
    w = sample_generalized_wigner(flat_spec(n, "rademacher"), 3).entries
    assert np.all(np.abs(np.abs(w) - 1.0 / np.sqrt(n)) < 1e-15)


def test_uniform_centered_entries_bounded():
    n = 30
    w = sample_generalized_wigner(flat_spec(n, "uniform-centered"), 3).entries
    off = w[np.triu_indices(n, 1)]
    assert np.all(np.abs(off) <= np.sqrt(3.0 / n) + 1e-15)
    assert off.std() > 0


def test_complex_field_splits_variance():
    n = 40
    offs = []
    iu = np.triu_indices(n, 1)
    for i in range(40):
        spec = flat_spec(n, "gaussian", field="C")
        offs.append(sample_generalized_wigner(spec, derive_key(0, "gw", i)).entries[iu])
    off = np.concatenate(offs)
    assert abs(np.mean(off.real ** 2) - 0.5 / n) < 0.002
    assert abs(np.mean(off.imag ** 2) - 0.5 / n) < 0.002
    assert abs(np.mean(off.real * off.imag)) < 0.001


def test_complex_rademacher_is_hermitian_not_real():
    w = sample_generalized_wigner(flat_spec(20, "rademacher", field="C"), 1)
    assert w.entries.dtype == np.complex128
    assert np.array_equal(w.entries, w.entries.conj().T)
    assert np.all(np.diag(w.entries).imag == 0)  # diagonal stays real


def test_sampler_rejects_goe_spec():
    with pytest.raises(ValidationError):
        sample_generalized_wigner(EnsembleSpec(kind="goe", n=10), 0)


def test_dispatch_matches_direct_samplers():
    assert np.array_equal(sample_ensemble(EnsembleSpec(kind="goe", n=15), 4).entries,
                          sample_goe(15, 4).entries)
    assert np.array_equal(sample_ensemble(EnsembleSpec(kind="gue", n=15, field="C"), 4).entries,
                          sample_gue(15, 4).entries)


def test_samplers_bit_deterministic():
    for spec in (EnsembleSpec(kind="goe", n=20),
                 EnsembleSpec(kind="gue", n=20, field="C"),
                 flat_spec(20, "rademacher"),
                 flat_spec(20, "uniform-centered", field="C")):
        a = sample_ensemble(spec, 123).entries
        b = sample_ensemble(spec, 123).entries
        assert np.array_equal(a, b)
        c = sample_ensemble(spec, 124).entries
        assert not np.array_equal(a, c)


# ---------------------------------------------------------------------- spike

def test_spike_config_validation():
    v = np.ones(4) / 2.0
    SpikeConfig(theta=0.0, v=v)  # pure noise allowed
    with pytest.raises(ValidationError):
        SpikeConfig(theta=-0.5, v=v)
    with pytest.raises(ValidationError):
        SpikeConfig(theta=np.inf, v=v)
    with pytest.raises(ValidationError):
        SpikeConfig(theta=1.5, v=np.ones(4))  # norm 2
    with pytest.raises(ValidationError):
        SpikeConfig(theta=1.5, v=np.ones((2, 2)) / 2.0)
    with pytest.raises(ValidationError, match="unit norm"):
        SpikeConfig(theta=2.0, v=np.full(4, np.nan))


def test_build_spiked_zero_noise():
    n = 6
    v = np.ones(n) / np.sqrt(n)
    h = build_spiked(SpikeConfig(theta=2.5, v=v), HermitianMatrix(np.zeros((n, n))))
    assert np.allclose(h.entries, 2.5 * np.outer(v, v), atol=1e-15)
    assert abs(np.trace(h.entries) - 2.5) < 1e-10


def test_build_spiked_dtype_paths():
    n = 8
    v = np.ones(n) / np.sqrt(n)
    real = build_spiked(SpikeConfig(theta=1.2, v=v), sample_goe(n, 0))
    assert real.entries.dtype == np.float64
    cplx = build_spiked(SpikeConfig(theta=1.2, v=v), sample_gue(n, 0))
    assert cplx.entries.dtype == np.complex128
    # complex signal forces the complex path even over real noise
    vc = np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)
    vc[0] *= 1.0j
    mixed = build_spiked(SpikeConfig(theta=1.2, v=vc), sample_goe(n, 0))
    assert mixed.entries.dtype == np.complex128


def _old_build_spiked(spike, noise):
    """The two-branch sum build_spiked used to write out, as the reference."""
    signal = symmetrize(spike.theta * np.outer(spike.v, np.conj(spike.v)))
    if noise.entries.dtype == np.float64 and not np.iscomplexobj(signal):
        return signal + noise.entries
    return signal.astype(np.complex128) + noise.entries.astype(np.complex128)


def _unit_vector(n, dtype, rng):
    """A random direction in ``dtype`` that SpikeConfig accepts as unit."""
    for _ in range(20):
        x = rng.standard_normal(n)
        if np.issubdtype(dtype, np.complexfloating):
            x = x + 1j * rng.standard_normal(n)
        v = (x / np.linalg.norm(x)).astype(dtype)
        v = v / np.linalg.norm(v)
        if abs(np.linalg.norm(v) - 1.0) <= 1e-12:
            return v
    raise AssertionError(f"no {dtype} unit vector of length {n} drawn")


@pytest.mark.parametrize("n", [2, 5, 50, 300])
def test_build_spiked_matches_two_branch_reference(n):
    # numpy's promotion of the one sum picks the dtype the branches picked,
    # and the bits agree
    rng = stream(21, "spiked-reference", n)
    for dtype in (np.float32, np.float64, np.complex64, np.complex128):
        spike = SpikeConfig(theta=1.7, v=_unit_vector(n, dtype, rng))
        for noise in (sample_goe(n, stream(22, n)), sample_gue(n, stream(23, n))):
            expected = _old_build_spiked(spike, noise)
            got = build_spiked(spike, noise).entries
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got.imag), np.signbit(expected.imag))


def test_build_spiked_dimension_mismatch():
    v = np.ones(4) / 2.0
    with pytest.raises(ValidationError):
        build_spiked(SpikeConfig(theta=1.0, v=v), sample_goe(5, 0))


# -------------------------------------------------------------- truth or haar

def test_truth_or_haar_degenerate_p():
    rng = stream(11, "toh")
    n = 12
    for group in (Z5, U1):
        x = haar_sample(group, n, rng)
        y = sample_truth_or_haar(group, x, 1.0, stream(11, "p1"))
        # all-truth: the upper triangle of the pairwise matrix, exactly, for
        # angles as for residues
        assert np.array_equal(y, pairwise_matrix(group, x)[np.triu_indices(n, 1)])
    with pytest.raises(ValueError):
        sample_truth_or_haar(Z5, haar_sample(Z5, 5, rng), 1.5, 0)
    with pytest.raises(ValueError):
        sample_truth_or_haar(Z5, haar_sample(Z5, 5, rng), -0.1, 0)


def test_truth_or_haar_agreement_rate():
    # P(Y_ij = d_ij) = p + (1-p)/L for cyclic groups
    n, p = 2000, 0.3
    x = haar_sample(Z5, n, stream(12, "x"))
    y = sample_truth_or_haar(Z5, x, p, stream(12, "y"))
    iu = np.triu_indices(n, 1)
    d = pairwise_matrix(Z5, x)[iu]
    agree = np.mean(y == d)
    expect = p + (1.0 - p) / 5.0
    se = np.sqrt(expect * (1.0 - expect) / iu[0].size)
    # 4 sigma: the seed is frozen, but leave headroom (one stream here sits
    # right at 3.0 sigma)
    assert abs(agree - expect) <= 4.0 * se

    # p = 0 is pure Haar: agreement only by chance
    y0 = sample_truth_or_haar(Z5, x, 0.0, stream(12, "y0"))
    agree0 = np.mean(y0 == d)
    se0 = np.sqrt(0.2 * 0.8 / iu[0].size)
    assert abs(agree0 - 0.2) <= 4.0 * se0


def test_truth_or_haar_returns_upper_triangle():
    n = 30
    for group in (Z2, Z5, U1):
        x = haar_sample(group, n, stream(13, "x", str(group)))
        y = sample_truth_or_haar(group, x, 0.4, stream(13, "y", str(group)))
        assert y.shape == (n * (n - 1) // 2,)
        assert y.dtype == (np.float64 if group is U1 else np.int64)
        assert np.array_equal(difference(group, y, 0), y)


def _triu_truth_or_haar(group, x, p, rng):
    """sample_truth_or_haar as it was with x_i and x_j gathered through
    np.triu_indices instead of the boolean upper mask."""
    iu = np.triu_indices(x.size, 1)
    m = iu[0].size
    u = rng.random(m)
    haar = haar_sample(group, m, rng)
    return np.where(u < p, difference(group, x[iu[0]], x[iu[1]]), haar)


@pytest.mark.parametrize("group", [CyclicGroup(order) for order in (2, 3, 4, 5, 7, 24)] + [U1],
                         ids=lambda g: str(g).replace("/", ""))
def test_truth_or_haar_matches_triu_indices_reference(group):
    for n in (2, 3, 7, 60, 500):
        x = haar_sample(group, n, stream(19, "x", str(group), n))
        for p in (0.0, 0.4, 1.0):
            got = sample_truth_or_haar(group, x, p, stream(19, "y", str(group), n))
            want = _triu_truth_or_haar(group, x, p, stream(19, "y", str(group), n))
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_sync_observation_z2_exactly_real():
    n = 40
    x = haar_sample(Z2, n, stream(14, "x"))
    y = sample_truth_or_haar(Z2, x, 0.5, stream(14, "y"))
    h = sync_observation_matrix(Z2, y)
    assert h.entries.dtype == np.float64
    vals = np.unique(np.abs(h.entries))
    assert np.allclose(vals, 1.0 / np.sqrt(n))
    assert np.all(np.diag(h.entries) == 1.0 / np.sqrt(n))


def test_sync_observation_conditional_mean():
    # E[chi(Y_ij) * conj(chi(d_ij))] = p for a nontrivial character
    n, p = 400, 0.3
    for group in (Z5, U1):
        x = haar_sample(group, n, stream(15, "x", str(group)))
        y = sample_truth_or_haar(group, x, p, stream(15, "y", str(group)))
        h = sync_observation_matrix(group, y)
        d = pairwise_matrix(group, x)
        iu = np.triu_indices(n, 1)
        prod = h.entries[iu] * np.sqrt(n) * np.conj(character(group, d[iu]))
        se = prod.real.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.real.mean() - p) <= 4.0 * se
        assert abs(prod.imag.mean()) <= 4.0 * max(se, 1e-12)


def test_sync_observation_rejects_broken_input():
    # only an upper triangle of n >= 2 group elements is accepted
    assert sync_observation_matrix(Z5, np.zeros(10, dtype=np.int64)).n == 5
    for bad in (np.zeros((5, 5), dtype=np.int64),  # a full matrix
                np.array(1),                       # a scalar
                np.zeros(0, dtype=np.int64),       # n = 1
                np.zeros(9, dtype=np.int64),       # not a triangular number
                np.array([0, 1, 5]),               # residue out of range
                np.array([0, -1, 2]),
                np.array([0.0, 1.0, 2.0])):        # not integer residues
        with pytest.raises(ValidationError):
            sync_observation_matrix(Z5, bad)
    assert sync_observation_matrix(U1, np.array([0.5, 7.0, -1.0])).n == 3
    for bad in (np.array([0.0, np.nan, 1.0]), np.array([np.inf, 0.0, 0.0]),
                np.array([1j, 0.0, 0.0]), np.zeros(2)):
        with pytest.raises(ValidationError):
            sync_observation_matrix(U1, bad)


# the complex128 table Z/2 had before its characters became float64
OLD_Z2_TABLE = np.array([1.0 + 0.0j, -1.0 + 0.0j])


def _old_inverse(group, y):
    """The group inverse as groups.py once computed it apart from ``difference``."""
    if isinstance(group, CyclicGroup):
        return np.mod(-np.asarray(y, dtype=np.int64), group.order)
    a = np.mod(-np.asarray(y, dtype=np.float64), 2.0 * np.pi)
    return np.where(a == 2.0 * np.pi, 0.0, a)


def _full_matrix_embedding(group, y, n):
    """The full-matrix reference from the same triangle: mirror through the
    inverse (0 is the identity on the diagonal), apply chi/sqrt(n) in
    complex128 (for Z/2 through the old complex table), then copy out the
    real part (Z/2) or symmetrize."""
    iu = np.triu_indices(n, 1)
    full = np.zeros((n, n), dtype=y.dtype)
    full[iu] = y
    full[iu[1], iu[0]] = _old_inverse(group, y)
    chi = OLD_Z2_TABLE[full] if group == Z2 else character(group, full)
    c = chi / np.sqrt(n)
    return c.real.copy() if real_field(group) else symmetrize(c)


@pytest.mark.parametrize("group", [CyclicGroup(order) for order in range(2, 25)] + [U1],
                         ids=lambda g: str(g).replace("/", ""))
def test_sync_observation_matches_full_matrix_reference(group):
    for n in (2, 3, 60, 500):
        x = haar_sample(group, n, stream(18, "x", str(group), n))
        y = sample_truth_or_haar(group, x, 0.5, stream(18, "y", str(group), n))
        got = sync_observation_matrix(group, y).entries
        want = _full_matrix_embedding(group, y, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_circle_sync_observation_hermitian():
    n = 60
    x = haar_sample(U1, n, stream(16, "x"))
    y = sample_truth_or_haar(U1, x, 0.2, stream(16, "y"))
    h = sync_observation_matrix(U1, y)
    assert np.array_equal(h.entries, h.entries.conj().T)
    assert np.allclose(np.abs(h.entries), 1.0 / np.sqrt(n))


# ---------------------------------- scalar fast paths against explicit arrays
# The flat default profile and the classical off-diagonal variances stay
# scalars; an explicit np.full((n, n), 1/n) profile is the array reference they
# replace.

def _flat_pair(n, law, field):
    flat = EnsembleSpec(kind="generalized-wigner", n=n, entry_law=law, field=field)
    explicit = EnsembleSpec(kind="generalized-wigner", n=n, entry_law=law, field=field,
                            variance_profile=np.full((n, n), 1.0 / n))
    return flat, explicit


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("law", ENTRY_LAWS)
@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_flat_profile_samples_match_explicit_profile(n, law, field):
    flat, explicit = _flat_pair(n, law, field)
    for seed in (0, 41):
        a = sample_generalized_wigner(flat, seed).entries
        b = sample_generalized_wigner(explicit, seed).entries
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("law", ENTRY_LAWS)
def test_flat_moment_profile_matches_explicit_profile(law, field):
    n = 9
    flat, explicit = _flat_pair(n, law, field)
    classical = EnsembleSpec(kind="goe" if field == "R" else "gue", n=n, field=field)
    for spec in (flat, classical):
        assert isinstance(spec.offdiag_variance, float)
        assert spec.offdiag_variance == 1.0 / n
    assert explicit.offdiag_variance is explicit.variance_profile
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(np.broadcast_to(flat.offdiag_variance, (n, n))[off],
                          explicit.offdiag_variance[off])
    check_moment_match(classical, explicit)
    check_moment_match(explicit, classical)
    check_moment_match(classical, flat)


def _folded_wigner(spec, seed):
    """The sampler as it was before it mirrored its draws: the upper triangle
    is written into zeros and folded with its (conjugate) transpose."""
    rng = as_generator(seed)
    n = spec.n
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    m = n * (n - 1) // 2
    prof = spec.variance_profile
    if prof is None:
        sig = sig_diag = np.sqrt(1.0 / n)
    else:
        sig, sig_diag = np.sqrt(prof[upper]), np.sqrt(np.diag(prof))
    if spec.field == "R":
        w = np.zeros((n, n))
        w[upper] = _unit_variance_draws(spec.entry_law, rng, m) * sig
        w = w + w.T
    else:
        w = np.zeros((n, n), dtype=np.complex128)
        scale = sig / np.sqrt(2.0)
        re = _unit_variance_draws(spec.entry_law, rng, m) * scale
        im = _unit_variance_draws(spec.entry_law, rng, m) * scale
        w[upper] = re + 1.0j * im
        w = w + w.conj().T
    w[np.diag_indices(n)] = _unit_variance_draws(spec.entry_law, rng, n) * sig_diag
    return w


def _circulant_profile(n):
    lag = np.abs(np.arange(n)[None, :] - np.arange(n)[:, None])
    weights = 1.0 + 0.5 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    prof = weights[np.minimum(lag, n - lag)]
    return prof / prof[0].sum()


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("law", ENTRY_LAWS)
def test_mirrored_wigner_matches_folded_reference(law, field):
    # mirroring the draws gives the fold's bytes; the fold differs only on a
    # draw of exactly -0.0, which it turned into +0.0
    specs = [EnsembleSpec(kind="generalized-wigner", n=n, entry_law=law, field=field)
             for n in (1, 2, 7, 60)]
    specs.append(EnsembleSpec(kind="generalized-wigner", n=12, entry_law=law, field=field,
                              variance_profile=_circulant_profile(12)))
    for spec in specs:
        for seed in (0, 41):
            got = sample_generalized_wigner(spec, seed).entries
            want = _folded_wigner(spec, seed)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_given_profile_is_a_read_only_copy():
    n = 6
    prof = np.full((n, n), 1.0 / n)
    spec = EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                        variance_profile=prof)
    assert not spec.variance_profile.flags.writeable
    with pytest.raises(ValueError):
        spec.variance_profile[0, 0] = 1.0
    before = sample_generalized_wigner(spec, 3).entries
    prof[0, 1] = prof[1, 0] = 5.0  # the caller's array is not the spec's
    assert np.array_equal(sample_generalized_wigner(spec, 3).entries, before)

