"""The slow, plainly correct version of each pipeline stage, written once.

Each function here is a kernel the package ran before a faster one replaced
it; its docstring names the commit that did so.  The differential tests hold
the package to these bit for bit, and ``trial_loss`` chains them into a whole
sweep cell.  A change that replaces a kernel moves the old one here as that
stage's reference, not into a private copy inside one test file.

A reference calls no package function that stands in for its own stage; its
docstring names those it shares from other stages.  pytest does not collect
this module (no ``test_`` prefix), and puts ``tests/`` on ``sys.path``.
"""

import math

import numpy as np
import scipy.linalg

from spikesim.groups import CyclicGroup, character, character_table, haar_sample, real_field
from spikesim.harness.universality import MOMENT_MATCH_TOL
from spikesim.limits import overlap_limit, residual_variance_limit
from spikesim.matrices import HermitianMatrix
from spikesim.predictions import CHUNK
from spikesim.rng import as_generator, derive_key, stream
from spikesim.spectral import resolvent_solve, top_eigenpair

TWO_PI = 2 * np.pi
# the complex128 table Z/2 had before 63bf092 made its characters float64
OLD_Z2_TABLE = np.array([1.0 + 0.0j, -1.0 + 0.0j])


def _mod(group, d):
    """d by np.mod, with a U(1) result of exactly 2*pi folded to 0."""
    if isinstance(group, CyclicGroup):
        return np.mod(d, group.order)
    y = np.mod(d, TWO_PI)
    return np.where(y == TWO_PI, 0.0, y)[()]


def _elements(group, x):
    return np.asarray(x, dtype=np.int64 if isinstance(group, CyclicGroup) else np.float64)


def canonical(group, x):
    """The canonical form of x by np.mod: groups.py before 9f93863."""
    return _mod(group, _elements(group, x))


def inverse(group, x):
    """The inverse of x by np.mod: groups.py before 9f93863."""
    return _mod(group, -_elements(group, x))


def difference(group, x, y):
    """x y^{-1} by np.mod: groups.difference before f4b2113 reduced in place."""
    return _mod(group, _elements(group, x) - _elements(group, y))


def residue(d, modulus):
    """Reduce ``d`` in place by fmod on every value, then add the modulus where
    negative: groups._residue before 2dc37f3 skipped fmod inside (-m, m)."""
    np.fmod(d, modulus, out=d)
    d += (d < 0) * modulus


def mismatch(group, truth, estimate):
    """The cyclic loss as both sides canonicalized, then compared (before 9f93863)."""
    return (canonical(group, truth) != canonical(group, estimate)).astype(np.float64)


def loss_values(group, truth, estimate):
    """Mismatch for Z/L; 1 - cos of the angle difference for U(1)."""
    if isinstance(group, CyclicGroup):
        return mismatch(group, truth, estimate)
    return 1.0 - np.cos(_elements(group, truth) - _elements(group, estimate))


def round_to_group(group, z):
    """Rounding through the angle for every input, reduced by np.mod:
    ceil(t - 1/2) mod L for t = arg(z) L / (2 pi), with the tie t = -1/2 and
    z = 0 sent to 0, and the wrapped phase for U(1).  groups.round_to_group
    before f4b2113 reduced in place and 2dc37f3 gave a real field its closed
    form."""
    z = np.asarray(z)
    if isinstance(group, CyclicGroup):
        t = np.angle(z) / TWO_PI * group.order
        k = np.where((t == -0.5) | (z == 0), 0.0, np.ceil(t - 0.5))
        return np.mod(k.astype(np.int64), group.order)
    return np.where(z == 0, 0.0, _mod(group, np.angle(z)))[()]


def table_round(group, z):
    """Brute-force rounding oracle (fdb709c): the argmin of |z - chi(k)|^2
    over the character table, and the gap between the two smallest distances.
    Shares ``character_table``."""
    z = np.asarray(z, dtype=np.complex128)
    d2 = np.abs(z[..., None] - character_table(group)) ** 2
    two = np.sort(d2, axis=-1)[..., :2]
    return np.where(z == 0, 0, np.argmin(d2, axis=-1)), two[..., 1] - two[..., 0]


def symmetrize(a):
    """(a + a*)/2 out of place: matrices.symmetrize before f4b2113."""
    a = np.asarray(a)
    return (a + a.conj().T) / 2.0


def goe(n, seed):
    """sample_goe out of place, before f4b2113.  Shares ``as_generator``."""
    a = as_generator(seed).standard_normal((n, n))
    return (a + a.T) / np.sqrt(2.0 * n)


def gue(n, seed):
    """sample_gue out of place, before f4b2113.  Shares ``as_generator``."""
    rng = as_generator(seed)
    z = rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))
    return (z + z.conj().T) / (2.0 * np.sqrt(n))


# ensembles._unit_variance_draws, law by law
UNIT_DRAWS = {
    "gaussian": lambda rng, m: rng.standard_normal(m),
    "rademacher": lambda rng, m: rng.integers(0, 2, size=m).astype(np.float64) * 2.0 - 1.0,
    "uniform-centered": lambda rng, m: rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=m),
}


def wigner(spec, seed, fold=False):
    """sample_generalized_wigner with its fill written out, as before 1eb011a
    moved it into the shared triangle helper: the upper-triangle draws
    (row-major, through the boolean mask) scaled by the profile go above the
    diagonal, their conjugates below, then the diagonal draws.  With ``fold``
    the triangle is written into zeros and added to its conjugate transpose,
    as before 37a5fbf.  Shares ``as_generator``."""
    rng, n = as_generator(seed), spec.n
    draw, prof = UNIT_DRAWS[spec.entry_law], spec.variance_profile
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    m = n * (n - 1) // 2
    if prof is None:
        sig = sig_diag = np.sqrt(1.0 / n)
    else:
        sig, sig_diag = np.sqrt(prof[upper]), np.sqrt(np.diag(prof))
    if spec.field == "R":
        above = draw(rng, m) * sig
    else:
        scale = sig / np.sqrt(2.0)
        above = draw(rng, m) * scale + 1.0j * (draw(rng, m) * scale)
    w = np.zeros((n, n), dtype=above.dtype)
    w[upper] = above
    if fold:
        w = w + w.conj().T
    else:
        w.T[upper] = np.conj(above)
    w[np.diag_indices(n)] = draw(rng, n) * sig_diag
    return w


def build_spiked(theta, v, w):
    """theta v v* + W as the two-branch sum build_spiked wrote out before
    7e96280: real when both parts are, else both cast to complex128."""
    signal = symmetrize(theta * np.outer(v, np.conj(v)))
    if w.dtype == np.float64 and not np.iscomplexobj(signal):
        return signal + w
    return signal.astype(np.complex128) + w.astype(np.complex128)


def truth_or_haar(group, x, p, rng):
    """sample_truth_or_haar with x_i and x_j gathered through np.triu_indices,
    as before 9f93863.  Shares ``haar_sample``."""
    iu = np.triu_indices(x.size, 1)
    u = rng.random(iu[0].size)
    haar = haar_sample(group, iu[0].size, rng)
    return np.where(u < p, difference(group, x[iu[0]], x[iu[1]]), haar)


def sync_observation_matrix(group, y):
    """H from the full n x n observation matrix, as before 7e6b462 stored each
    observation once: Y_ij above the diagonal, its inverse below, the
    identity on it; chi/sqrt(n) in complex128 (Z/2 through ``OLD_Z2_TABLE``),
    then the real part for Z/2, else ``symmetrize``.  Shares ``character``
    and ``real_field``."""
    n = (1 + math.isqrt(1 + 8 * y.size)) // 2
    iu = np.triu_indices(n, 1)
    full = np.zeros((n, n), dtype=y.dtype)
    full[iu] = y
    full[iu[1], iu[0]] = inverse(group, y)
    c = (OLD_Z2_TABLE[full] if real_field(group) else character(group, full)) / np.sqrt(n)
    return c.real.copy() if real_field(group) else symmetrize(c)


def pairwise_matrix(group, x):
    """All n^2 of M[i, j] = x_i x_j^{-1}: groups.pairwise_matrix as of 5b53fd2."""
    return difference(group, x[:, None], x[None, :])


def estimate_group_matrix(group, v_hat):
    """All n^2 products n v_i conj(v_j), rounded: as of 5b53fd2."""
    return round_to_group(group, v_hat.size * np.outer(v_hat, np.conj(v_hat)))


def average_loss(group, m_true, m_est):
    """The mean of the n^2 losses: groups.average_loss before 2dc37f3
    counted the cyclic mismatches."""
    return float(np.mean(loss_values(group, m_true, m_est)))


def trial_loss(config, theta_index, theta, trial):
    """The empirical loss of one sweep cell through this module's stages: the
    truth-or-Haar triangle and full-matrix embedding, or GOE/GUE noise and the
    two-branch spiked sum; then the n^2 rounding and mean loss.  Shares the
    cell's streams (``derive_key``, ``stream``), ``haar_sample``,
    ``character``, ``real_field`` and ``top_eigenpair``: the eigensolver is
    not under test, and sharing it keeps U(1) comparable byte for byte."""
    group, n = config.group, config.n
    key = derive_key(config.master_seed, "sweep", theta_index, trial)
    x = haar_sample(group, n, stream(key, "signal"))
    noise_rng = stream(key, "noise")
    if config.noise_model == "truth-or-haar":
        h = sync_observation_matrix(group, truth_or_haar(group, x, theta / np.sqrt(n), noise_rng))
    else:
        w = (goe if real_field(group) else gue)(n, noise_rng)
        h = build_spiked(theta, character(group, x) / np.sqrt(n), w)
    v_hat = top_eigenpair(HermitianMatrix(h)).eigenvector
    return average_loss(group, pairwise_matrix(group, x), estimate_group_matrix(group, v_hat))


def prediction(group, theta, n_samples, seed):
    """predict_sync_loss before d01f663 blocked its arithmetic: each step runs
    over a whole chunk, and complex Gaussians are (a + 1j b)/sqrt(2) through
    complex temporaries.  Rounds and scores with this module's stages; shares
    ``CHUNK`` (it names the streams), ``stream``, ``haar_sample``,
    ``character``, ``real_field`` and the limits.  Returns (mean, stderr)."""
    rho = math.sqrt(overlap_limit(theta))
    tau = math.sqrt(residual_variance_limit(theta))

    def gaussians(rng, m):
        if real_field(group):
            return rng.standard_normal(m)
        return (rng.standard_normal(m) + 1.0j * rng.standard_normal(m)) / np.sqrt(2.0)

    total = total_sq = 0.0
    for index, done in enumerate(range(0, n_samples, CHUNK)):
        m = min(CHUNK, n_samples - done)
        rng = stream(seed, "chunk", index)
        x = haar_sample(group, m, rng)
        y = haar_sample(group, m, rng)
        g = gaussians(rng, m)
        h = gaussians(rng, m)
        prod = (rho * character(group, x) + tau * g) \
            * (rho * np.conj(character(group, y)) + tau * np.conj(h))
        vals = loss_values(group, difference(group, x, y), round_to_group(group, prod))
        total += float(vals.sum())
        total_sq += float(np.square(vals).sum())
    mean = total / n_samples
    var = max(0.0, total_sq - n_samples * mean * mean) / max(1, n_samples - 1)
    return mean, math.sqrt(var / n_samples)


def fix_phase(vec):
    """vec times conj(p)/|p|, with p its entry of largest modulus, the lowest
    index on ties: the phase rule of ``top_eigenpair``, written out."""
    mod = np.abs(vec)
    p = vec[np.flatnonzero(mod == mod.max())[0]]
    return vec * (np.conj(p) / abs(p))


def posv_solve(w, z, b):
    """(zI - W)^{-1} b for a real z by one ?posv call on zI - W, with no
    residual check: the Cholesky path of 5b53fd2, written plainly.  A complex
    b over a real W goes in as the real columns [Re b, Im b], as
    resolvent_solve has taken it since it stopped casting a real W to
    complex; before, ?posv took it whole, in complex arithmetic."""
    a = z * np.eye(w.shape[0], dtype=w.dtype) - w
    split = not np.iscomplexobj(w) and np.iscomplexobj(b)
    rhs = np.column_stack((b.real, b.imag)) if split else b
    _, x, info = scipy.linalg.get_lapack_funcs("posv", (a, rhs))(a, rhs, lower=1)
    assert info == 0
    return x[:, 0] + 1j * x[:, 1] if split else x


def secular_root(w, v, theta):
    """The secular root by bisection to 1e-12 on the default bracket, then one
    Newton polish, as before f866bfc; None when the bracket holds no sign
    change.  Every evaluation is a dense ``resolvent_solve`` of W, while the
    package steps on a tridiagonal reduction of W, so only the two bracket
    ends share a route with it."""
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


def moment_gate(spec_a, spec_b):
    """The universality gate as it read per-part second moments (re2, im2)
    before 10807bf: None when matched, "field" on a field mismatch, else the
    worst off-diagonal deviation.  Shares the tolerance ``MOMENT_MATCH_TOL``."""
    def parts(spec):
        n = spec.n
        if spec.kind == "goe":
            return 1.0 / n, 0.0, "R"
        if spec.kind == "gue":
            return 0.5 / n, 0.5 / n, "C"
        var = 1.0 / n if spec.variance_profile is None else spec.variance_profile
        if spec.field == "R":
            return var, 0.0, "R"
        return var / 2.0, var / 2.0, "C"

    (re_a, im_a, field_a), (re_b, im_b, field_b) = parts(spec_a), parts(spec_b)
    if field_a != field_b:
        return "field"
    for a, b in ((re_a, re_b), (im_a, im_b)):
        diff = np.abs(a - b)
        if np.ndim(diff):
            np.fill_diagonal(diff, 0.0)
        worst = float(np.max(diff))
        if worst > MOMENT_MATCH_TOL:
            return worst
    return None
