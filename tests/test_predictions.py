"""Limiting loss predictions: closed form, Monte Carlo, reproducibility.

The sign-error probability q behind the two-element closed form is
re-derived here by numerical integration of the Gaussian density, so the
frozen constants are checked against an independent route.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from spikesim import (
    ValidationError,
    character,
    parse_group,
    predict_sync_loss,
    z2_mismatch_exact,
)
from spikesim import groups, predictions, stream
from spikesim.groups import CyclicGroup, haar_sample
from spikesim.limits import overlap_limit, residual_variance_limit
from spikesim.predictions import BLOCK, CHUNK

import reference

Z2 = parse_group("Z/2")
Z5 = parse_group("Z/5")
U1 = parse_group("U(1)")

# frozen values of 2q(1-q), q = P(N(0,1) < -sqrt(theta^2 - 1))
Z2_MISMATCH_LIMITS = {
    1.5: 0.22882252314197685,
    2.0: 0.0797980267959431,
    3.0: 0.004666794378770809,
}


def gauss_tail(s):
    """P(N(0,1) <= -s) by quadrature over the finite complement."""
    body, err = integrate.quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
                               0.0, s)
    assert err < 1e-12
    return 0.5 - body


# ---------------------------------------------------------------- closed form

def test_z2_closed_form_frozen_values():
    for theta, expect in Z2_MISMATCH_LIMITS.items():
        assert z2_mismatch_exact(theta) == expect


def test_z2_closed_form_against_quadrature():
    for theta in (1.2, 1.5, 2.0, 3.0, 4.0):
        q = gauss_tail(math.sqrt(theta * theta - 1.0))
        assert z2_mismatch_exact(theta) == pytest.approx(2.0 * q * (1.0 - q), abs=1e-13)


def test_z2_closed_form_limits():
    # at the transition the estimate carries no information: loss 1/2
    assert z2_mismatch_exact(1.0 + 1e-12) == pytest.approx(0.5, abs=1e-5)
    assert z2_mismatch_exact(50.0) < 1e-300
    # strictly decreasing in theta
    thetas = np.linspace(1.01, 6.0, 40)
    vals = [z2_mismatch_exact(t) for t in thetas]
    assert np.all(np.diff(vals) < 0)


def test_closed_form_domain():
    for bad in (1.0, 0.5, 0.0, -2.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            z2_mismatch_exact(bad)


# ---------------------------------------------------------------- monte carlo

def test_mc_matches_closed_form():
    est = predict_sync_loss(Z2, 2.0, n_samples=10 ** 6, seed=100)
    assert est.stderr < 5e-4
    assert abs(est.mean - Z2_MISMATCH_LIMITS[2.0]) <= 4.0 * est.stderr
    assert est.n_samples == 10 ** 6


def test_mc_supercritical_only():
    for bad in (1.0, 0.5, np.nan):
        with pytest.raises(ValueError):
            predict_sync_loss(Z2, bad, n_samples=1000)


def test_mc_sample_floor_and_seed_type():
    with pytest.raises(ValidationError):
        predict_sync_loss(Z2, 2.0, n_samples=999)
    for bad in (1000.7, np.inf, np.nan, True):
        with pytest.raises(ValidationError, match="n_samples"):
            predict_sync_loss(Z2, 2.0, n_samples=bad)
    assert predict_sync_loss(Z2, 2.0, n_samples=1000.0).n_samples == 1000
    # the seed is read as every other integer input is
    for bad in ("abc", True, 7.5):
        with pytest.raises(ValidationError, match="seed"):
            predict_sync_loss(Z2, 2.0, n_samples=1000, seed=bad)
    want = predict_sync_loss(Z2, 2.0, n_samples=1000, seed=7)
    for seed in (np.int64(7), 7.0):
        got = predict_sync_loss(Z2, 2.0, n_samples=1000, seed=seed)
        assert got.mean.hex() == want.mean.hex() and got.stderr.hex() == want.stderr.hex()


def test_mc_bit_deterministic():
    a = predict_sync_loss(Z5, 1.8, n_samples=20000, seed=7)
    b = predict_sync_loss(Z5, 1.8, n_samples=20000, seed=7)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_mc_two_seeds_agree_statistically():
    a = predict_sync_loss(Z5, 1.8, n_samples=200000, seed=1)
    b = predict_sync_loss(Z5, 1.8, n_samples=200000, seed=2)
    assert a.mean != b.mean  # independent streams
    assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.stderr, b.stderr)


def test_mc_two_chunks_pinned():
    # the chunk size names the Monte Carlo streams; this two-chunk estimate
    # pins the bits of the 1 << 20 chunking
    assert CHUNK == 1 << 20
    est = predict_sync_loss(Z2, 2.0, n_samples=CHUNK + 1000, seed=3)
    assert est.mean == 0.07981318170384993
    assert est.stderr == 0.00026452612925435793
    # the complex fields, whose last draw is h's imaginary parts
    est = predict_sync_loss(Z5, 2.0, n_samples=CHUNK + 1000, seed=3)
    assert est.mean == 0.3083978673292834
    assert est.stderr == 0.00045079294035007297
    est = predict_sync_loss(U1, 2.0, n_samples=CHUNK + 1000, seed=3)
    assert est.mean == 0.1897095732210317
    assert est.stderr == 0.00027035231432297115


def test_mc_stderr_scales_with_samples():
    small = predict_sync_loss(Z5, 2.0, n_samples=10 ** 5, seed=4)
    large = predict_sync_loss(Z5, 2.0, n_samples=4 * 10 ** 5, seed=4)
    ratio = small.stderr / large.stderr
    assert 1.4 <= ratio <= 2.6  # ~2 by the root-n law


def test_mc_monotone_in_theta():
    prev = None
    for theta in (1.2, 1.5, 2.0, 3.0, 5.0):
        est = predict_sync_loss(Z5, theta, n_samples=200000, seed=5)
        if prev is not None:
            assert est.mean < prev.mean + 4.0 * math.hypot(est.stderr, prev.stderr)
        prev = est


def test_mc_circle_loss_in_range():
    est = predict_sync_loss(U1, 2.0, n_samples=50000, seed=8)
    assert 0.0 < est.mean < 2.0  # one-minus-cos is bounded by 2
    far = predict_sync_loss(U1, 6.0, n_samples=50000, seed=8)
    assert far.mean < est.mean  # stronger signal, smaller loss


# ------------------------------------------- independent complex-field oracles
# The modeled entry z = (rho chi(x) + tau g)(rho conj(chi(y)) + tau conj(h)) is
# drawn here with numpy alone; only the rounding and scoring rules are restated,
# each by a route other than the package's.

def oracle_entries(rng, theta, chi_x, chi_y):
    rho, tau = math.sqrt(1.0 - theta ** -2), 1.0 / theta
    m = chi_x.size
    g = (rng.standard_normal(m) + 1.0j * rng.standard_normal(m)) / math.sqrt(2.0)
    h = (rng.standard_normal(m) + 1.0j * rng.standard_normal(m)) / math.sqrt(2.0)
    return (rho * chi_x + tau * g) * (rho * np.conj(chi_y) + tau * np.conj(h))


def oracle_mean(vals):
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


def test_z5_prediction_matches_independent_oracle():
    # round z to the character chi_k = exp(2 pi i k / 5) with the largest
    # Re(z conj(chi_k)), rather than round_to_group's angle/ceil rule
    theta, m = 2.0, 300000
    rng = np.random.default_rng(2019)
    x = rng.integers(0, 5, m)
    y = rng.integers(0, 5, m)
    table = np.exp(2.0j * np.pi * np.arange(5) / 5)
    z = oracle_entries(rng, theta, table[x], table[y])
    decoded = np.argmax(np.real(z[:, None] * np.conj(table)[None, :]), axis=1)
    mean, err = oracle_mean((decoded != (x - y) % 5).astype(np.float64))
    est = predict_sync_loss(Z5, theta, n_samples=m, seed=12)
    assert abs(mean - est.mean) <= 4.0 * math.hypot(err, est.stderr)


def test_u1_prediction_matches_independent_oracle():
    # one-minus-cos against the phase of z, as 1 - Re(z exp(-i(x - y))) / |z|
    # with no angle wrapping
    theta, m = 2.0, 300000
    rng = np.random.default_rng(2020)
    x = rng.uniform(0.0, 2.0 * np.pi, m)
    y = rng.uniform(0.0, 2.0 * np.pi, m)
    z = oracle_entries(rng, theta, np.exp(1.0j * x), np.exp(1.0j * y))
    mean, err = oracle_mean(1.0 - np.real(z * np.exp(-1.0j * (x - y))) / np.abs(z))
    est = predict_sync_loss(U1, theta, n_samples=m, seed=13)
    assert abs(mean - est.mean) <= 4.0 * math.hypot(err, est.stderr)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("theta", [1.2, 2.0, 3.0])
def test_z2_prediction_bits_match_complex_table(monkeypatch, theta, seed):
    # with the float64 Z/2 table the Monte Carlo runs in real arithmetic and
    # gives the bits it gave through the old complex table [1+0j, -1+0j]
    real = predict_sync_loss(Z2, theta, n_samples=20000, seed=seed)
    table = groups.character_table
    monkeypatch.setattr(groups, "character_table",
                        lambda g: reference.OLD_Z2_TABLE if g == Z2 else table(g))
    assert character(Z2, 1).dtype == np.complex128
    old = predict_sync_loss(Z2, theta, n_samples=20000, seed=seed)
    assert (real.mean.hex(), real.stderr.hex()) == (old.mean.hex(), old.stderr.hex())


@pytest.mark.parametrize("text", ["Z/2", "Z/3", "Z/4", "Z/5", "U(1)"])
def test_blocked_prediction_bits_match_unblocked_kernel(text):
    group = parse_group(text)
    # U(1) draws y and g from copies of the chunk stream moved past m and 2m
    # words, 4 to a Philox counter step: m = 1000..1003 start them at every
    # offset into the buffer
    extra = (1001, 1002, 1003) if text == "U(1)" else ()
    for theta in (1.05, 2.0, 6.0):
        for seed in (0, 9):
            for n in (1000, BLOCK - 1, BLOCK + 1, CHUNK + 1000) + extra:
                est = predict_sync_loss(group, theta, n_samples=n, seed=seed)
                mean, err = reference.prediction(group, theta, n, seed)
                assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), err.hex()), \
                    (theta, seed, n)


@pytest.mark.parametrize("group", [Z2, Z5, U1, parse_group("Z/257")], ids=str)
def test_block_size_moves_no_bit(monkeypatch, group):
    # only CHUNK names streams; BLOCK slices the arithmetic and the chunk's
    # last draw (all of h for Z/2, h's imaginary parts otherwise)
    n = 3 * BLOCK + 5
    default = predict_sync_loss(group, 2.0, n_samples=n, seed=6)
    for block in (1000, 4097, CHUNK):
        monkeypatch.setattr(predictions, "BLOCK", block)
        est = predict_sync_loss(group, 2.0, n_samples=n, seed=6)
        assert (est.mean.hex(), est.stderr.hex()) == (default.mean.hex(), default.stderr.hex())


@pytest.mark.parametrize("words", [0, 1, 2, 3, 4, 5, 6, 7, 8, 1001, 2 * BLOCK + 3])
def test_skip_leaves_stream_where_uniform_draws_do(words):
    # a U(1) angle takes one 64-bit word, so moving a fresh stream past k words
    # stands for drawing k angles
    def next_draws(rng):
        return [rng.uniform(0.0, 2.0 * np.pi, size=7).tobytes(),
                rng.standard_normal(9).tobytes(), rng.bit_generator.random_raw(5).tobytes()]

    drawn = stream(5, "chunk", 0)
    drawn.uniform(0.0, 2.0 * np.pi, size=words)
    assert next_draws(predictions._skip(stream(5, "chunk", 0), words)) == next_draws(drawn)


@pytest.mark.parametrize("m", [1001, 32769])
@pytest.mark.parametrize("block", [1, 7, 777])
@pytest.mark.parametrize("order", [2, 5, 256, 257])
def test_block_drawn_residues_match_one_draw(monkeypatch, order, block, m):
    # ``integers`` takes 32-bit halves of the stream's words from a buffer in
    # the bit generator, so residues drawn block by block are one whole draw's
    # and leave the stream, that buffer included, where the whole draw does
    def next_draws(rng):
        return [rng.integers(0, order, size=3).tobytes(), rng.standard_normal(5).tobytes(),
                rng.bit_generator.random_raw(3).tobytes()]

    group = CyclicGroup(order)
    monkeypatch.setattr(predictions, "BLOCK", block)
    drawn = stream(5, "chunk", 0)
    whole = haar_sample(group, m, drawn)
    blocked = stream(5, "chunk", 0)
    x = predictions._haar(group, m, blocked)
    assert x.dtype == np.min_scalar_type(order - 1)
    assert np.array_equal(x, whole)
    assert next_draws(blocked) == next_draws(drawn)


def test_z2_zero_factor_rounds_to_identity(monkeypatch):
    # at theta = 2, tau = 1/2 and tau * (2 rho) == rho exactly, so a draw set
    # to -2 rho chi makes its factor rho chi + tau g exactly 0; the product is
    # then 0 and rounds to the identity.  Draws with |g| < 0.05 are set to
    # +-2 rho by their sign, which zeroes about half of those factors, in g's
    # pass and in h's
    theta = 2.0
    rho = math.sqrt(overlap_limit(theta))
    assert math.sqrt(residual_variance_limit(theta)) * (2.0 * rho) == rho
    substituted = []

    class Substituted:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, *args, **kwargs):
            g = self.rng.standard_normal(*args, **kwargs)
            near = np.abs(g) < 0.05
            g[near] = np.copysign(2.0 * rho, g[near])
            substituted.append(int(np.count_nonzero(near)))
            return g

    def substituted_stream(*key):
        return Substituted(stream(*key))

    monkeypatch.setattr(predictions, "stream", substituted_stream)
    monkeypatch.setattr(reference, "stream", substituted_stream)
    for n in (1000, 3 * BLOCK + 5):
        est = predict_sync_loss(Z2, theta, n_samples=n, seed=21)
        mean, err = reference.prediction(Z2, theta, n, 21)
        assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), err.hex()), n
    assert sum(substituted) > 1000


@pytest.mark.parametrize("text, dtype", [("Z/256", np.uint8), ("Z/257", np.uint16)],
                         ids=["Z/256", "Z/257"])
def test_residue_type_boundary_matches_reference(text, dtype):
    group = parse_group(text)
    assert predictions._haar(group, 4, np.random.default_rng(0)).dtype == dtype
    est = predict_sync_loss(group, 2.0, n_samples=BLOCK + 1, seed=11)
    mean, err = reference.prediction(group, 2.0, BLOCK + 1, 11)
    assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), err.hex())


def peak_units(traced_peak, group, m):
    """Traced peak of one m-sample prediction, in units of 8 bytes per chunk
    sample (per sample below one chunk)."""
    return traced_peak(predict_sync_loss, group, 2.0, n_samples=m, seed=0) / (8 * min(m, CHUNK))


@pytest.mark.parametrize("group, bound", [(Z2, 2.25), (Z5, 4.75), (U1, 5.75)],
                         ids=["Z/2", "Z/5", "U(1)"])
def test_prediction_peak_memory(group, bound, traced_peak):
    # in units of 8 bytes per sample: Z/2 holds cyclic x and y and one sign
    # byte per sample (3/8 unit), a complex field the whole g and h's real
    # parts (3 units) beside cyclic x and y (1/4 unit as residues); U(1) draws
    # its angles per block and holds its loss values (1 unit).  At 2^18
    # samples a block is 1/8 unit, and the block's draws and temporaries add
    # about 0.5 unit for Z/2 and 1.1 for a complex field: 0.89, 4.38 and 5.38
    # units in all, with numpy's temporary elision (a temporary operand's
    # buffer takes the result), as on Linux.  Drawing g whole reads 1.75 for
    # Z/2 (see test_z2_prediction_peak_memory), and drawing h whole, or
    # keeping the cyclic loss values or int64 residues, fails the Z/2 bound
    # here; U(1) angles drawn whole read 7.13
    assert peak_units(traced_peak, group, 1 << 18) <= bound


@pytest.mark.parametrize("group, bound", [(Z2, 1.75), (Z5, 4.0), (U1, 4.75)],
                         ids=["Z/2", "Z/5", "U(1)"])
def test_prediction_peak_memory_across_chunks(group, bound, traced_peak):
    # three chunks, in units of 8 bytes per chunk sample: each chunk's draws
    # and loss values are freed before the next chunk draws, so the peak is
    # one chunk's (1.38 units for Z/2, 3.53 for Z/5, 4.34 for U(1), whose
    # angles drawn whole read 6.28).  Holding a chunk's draws into the next
    # reads 2.38, 6.25 and 9.0 units
    assert peak_units(traced_peak, group, 2 * CHUNK + 1000) <= bound


@pytest.mark.parametrize("m, bound", [(1 << 18, 1.25), (2 * CHUNK + 1000, 1.0)],
                         ids=["2^18", "chunks"])
def test_z2_prediction_peak_memory(m, bound, traced_peak):
    # Z/2 draws g and h block by block and holds x, y and one sign byte per
    # sample (3/8 unit) beside one block's factor and draws: 0.89 units at
    # 2^18 samples and 0.51 across chunks.  g drawn whole reads 1.75 and 1.38
    assert peak_units(traced_peak, Z2, m) <= bound
