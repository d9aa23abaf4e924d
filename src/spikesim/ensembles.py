"""Seeded samplers for the noise-matrix laws and the sync observation model.

All samplers are pure functions of (spec, seed): a seed may be an integer
(hashed into a named Philox stream, see ``rng``) or an explicit Generator.
Identical inputs give bit-identical outputs.  The noise samplers return
``HermitianMatrix`` objects, exactly Hermitian by construction.  The sync
observation model stores each pairwise observation once:
``sample_truth_or_haar`` returns the upper triangle Y_ij, i < j, as a flat
array, and ``sync_observation_matrix`` embeds it into a Hermitian matrix by
one symmetrization rule for every group, with no n x n ``symmetrize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_int, checked_real
from .groups import CyclicGroup, Group, character, difference, haar_sample
from .matrices import HermitianMatrix
from .rng import as_generator

ENSEMBLE_KINDS = ("goe", "gue", "generalized-wigner")
ENTRY_LAWS = ("gaussian", "rademacher", "uniform-centered")

ROW_SUM_TOL = 1e-8

# a given variance profile must keep n*sigma^2_ij within [1/GAMMA_W, GAMMA_W]
GAMMA_W = 10.0

# bytes of H per row block of ``build_spiked``: the signal's block temporaries
# stay near this size whatever n is
SPIKE_BLOCK_BYTES = 1 << 17

# rows per block of GOE's in-place a + a.T
GOE_ROWS = 64


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a noise ensemble.

    ``variance_profile`` is the n x n matrix of entry variances sigma^2_ij for
    the generalized Wigner kinds (default ``None``: flat 1/n, never
    materialized).  n*sigma^2_ij must lie within [1/``GAMMA_W``, ``GAMMA_W``].
    ``field`` defaults to the kind's: "C" for GUE, else "R".
    """

    kind: str
    n: int
    entry_law: str | None = None
    variance_profile: np.ndarray | None = None
    field: str | None = None

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        object.__setattr__(self, "n", checked_int(self.n, "n", 1))
        if self.field is None:
            object.__setattr__(self, "field", "C" if self.kind == "gue" else "R")
        if self.field not in ("R", "C"):
            raise ValidationError(f"field must be 'R' or 'C', got {self.field!r}")
        if self.kind == "goe" and self.field != "R":
            raise ValidationError("GOE is a real ensemble")
        if self.kind == "gue" and self.field != "C":
            raise ValidationError("GUE is a complex ensemble")
        if self.kind in ("goe", "gue"):
            if self.entry_law is not None or self.variance_profile is not None:
                raise ValidationError(f"{self.kind} takes no entry law or variance profile")
        else:
            if self.entry_law not in ENTRY_LAWS:
                raise ValidationError(
                    f"entry_law must be one of {ENTRY_LAWS} for {self.kind}, got {self.entry_law!r}")
        if self.variance_profile is None:
            return
        # a given profile is checked once, here; the read-only copy keeps later
        # edits of the caller's array from slipping past the checks
        prof = np.array(self.variance_profile, dtype=np.float64)
        n = self.n
        if prof.shape != (n, n):
            raise ValidationError(f"variance profile shape {prof.shape} does not match n = {n}")
        if not np.array_equal(prof, prof.T):
            raise ValidationError("variance profile must be symmetric")
        if np.any(prof < 0):
            raise ValidationError("variance profile must be nonnegative")
        row_sums = prof.sum(axis=1)
        bad = np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            shown = ", ".join(f"row {i}: sum {row_sums[i]:.12g}" for i in bad[:5])
            more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
            raise ValidationError(f"variance profile rows must sum to 1; violations: {shown}{more}")
        scaled = n * prof
        if np.any(scaled < 1.0 / GAMMA_W - 1e-12) or np.any(scaled > GAMMA_W + 1e-12):
            raise ValidationError(
                f"n*sigma^2 must lie in [{1.0 / GAMMA_W:.4g}, {GAMMA_W:.4g}]; "
                f"observed range [{scaled.min():.4g}, {scaled.max():.4g}]")
        prof.setflags(write=False)
        object.__setattr__(self, "variance_profile", prof)

    @property
    def offdiag_variance(self) -> float | np.ndarray:
        """E|W_ij|^2 off the diagonal: the float 1/n for GOE, GUE and flat
        Wigner, else the given profile."""
        return 1.0 / self.n if self.variance_profile is None else self.variance_profile


def _upper(n: int) -> np.ndarray:
    """Strict upper triangle mask: i < j in row-major order, as stored here."""
    i = np.arange(n)
    return i[:, None] < i


def _mirrored(n: int, up: np.ndarray, low: np.ndarray, diag, take=...) -> np.ndarray:
    """n x n: ``up[take]`` above the diagonal, ``low[take]`` mirrored below and
    ``diag`` on it (``take=...`` uses the triangles as given); one gathered
    triangle at a time is alive beside the result."""
    upper = _upper(n)
    c = np.empty((n, n), dtype=np.result_type(up, low))
    c[upper] = up[take]
    # c.T[upper] runs over (j, i) for i < j in the same row-major pair order
    c.T[upper] = low[take]
    c[np.diag_indices(n)] = diag
    return c


def sample_goe(n: int, seed) -> HermitianMatrix:
    """Real symmetric Gaussian matrix: off-diagonals N(0, 1/n), diagonals N(0, 2/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    # a + a.T in the draw's own array, by blocks of GOE_ROWS rows: the rows
    # right of each diagonal block take the columns below it, which then take
    # their transpose; IEEE addition commutes, so these are the bits of a + a.T
    h = rng.standard_normal((n, n))
    for lo in range(0, n, GOE_ROWS):
        hi = min(n, lo + GOE_ROWS)
        upper = h[lo:hi, hi:]
        upper += h[hi:, lo:hi].T
        h[hi:, lo:hi] = upper.T
        # block.T overlaps block, so numpy reads it from a copy of the block
        block = h[lo:hi, lo:hi]
        block += block.T
    h /= np.sqrt(2.0 * n)
    return HermitianMatrix(h)


def sample_gue(n: int, seed) -> HermitianMatrix:
    """Complex Hermitian Gaussian matrix: off-diagonals N_C(0, 1/n) (components
    N(0, 1/(2n))), diagonals real N(0, 1/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    # (z + z*)/(2 sqrt(n)) for z = re + i im, written part by part into one
    # buffer; im is drawn into re's array once re is used.  numpy divides a
    # complex by a real by multiplying each part by the reciprocal, so the
    # scaling gives its bits
    h = np.empty((n, n), dtype=np.complex128)
    g = rng.standard_normal((n, n))
    np.add(g, g.T, out=h.real)
    rng.standard_normal(out=g)
    np.subtract(g, g.T, out=h.imag)
    del g
    parts = h.view(np.float64)
    parts *= 1.0 / (2.0 * np.sqrt(n))
    return HermitianMatrix(h)


def _unit_variance_draws(law: str, rng: np.random.Generator, size) -> np.ndarray:
    if law == "gaussian":
        return rng.standard_normal(size)
    if law == "rademacher":
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if law == "uniform-centered":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=size)
    raise ValidationError(f"unknown entry law {law!r}")


def sample_generalized_wigner(spec: EnsembleSpec, seed) -> HermitianMatrix:
    """Independent-entry Hermitian matrix with the spec's variance profile.

    Off-diagonal draw order is fixed (upper triangle row-major, then the
    diagonal) so the seed -> matrix map is stable.  For field C the real and
    imaginary parts are i.i.d. copies of the entry law scaled to variance
    sigma^2/2 each; diagonals are always real with variance sigma^2_ii.
    """
    if spec.kind != "generalized-wigner":
        raise ValidationError(f"sampler expects a generalized-wigner spec, got kind {spec.kind!r}")
    rng = as_generator(seed)
    n = spec.n
    prof = spec.variance_profile
    m = n * (n - 1) // 2
    if prof is None:
        sig = sig_diag = np.sqrt(1.0 / n)
    else:
        sig, sig_diag = np.sqrt(prof[_upper(n)]), np.sqrt(np.diag(prof))
    if spec.field == "R":
        above = _unit_variance_draws(spec.entry_law, rng, m) * sig
    else:
        scale = sig / np.sqrt(2.0)
        re = _unit_variance_draws(spec.entry_law, rng, m) * scale
        im = _unit_variance_draws(spec.entry_law, rng, m) * scale
        above = re + 1.0j * im
    d = _unit_variance_draws(spec.entry_law, rng, n) * sig_diag
    return HermitianMatrix(_mirrored(n, above, np.conj(above), d))


def sample_ensemble(spec: EnsembleSpec, seed) -> HermitianMatrix:
    """Dispatch on spec.kind."""
    if spec.kind == "goe":
        return sample_goe(spec.n, seed)
    if spec.kind == "gue":
        return sample_gue(spec.n, seed)
    return sample_generalized_wigner(spec, seed)


@dataclass(frozen=True)
class SpikeConfig:
    """Rank-one signal theta * v v*; v must be unit to 1e-12.

    theta = 0 is allowed here (pure noise); the supercritical-only operations
    enforce theta > 1 themselves.
    """

    theta: float
    v: np.ndarray

    def __post_init__(self):
        theta = checked_real(self.theta, "theta")
        if not np.isfinite(theta) or theta < 0.0:
            raise ValidationError(f"theta must be finite and >= 0, got {theta!r}")
        object.__setattr__(self, "theta", theta)
        v = np.asarray(self.v)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("v must be a nonempty vector")
        nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= 1e-12:  # also refuses a NaN norm
            raise ValidationError(f"v must be unit norm within 1e-12, got ||v|| = {nrm!r}")
        object.__setattr__(self, "v", v)


def build_spiked(spike: SpikeConfig, noise: HermitianMatrix) -> HermitianMatrix:
    """theta * v v* + W, exactly Hermitian; real dtype when both parts are real
    (numpy's type promotion of the sum decides).

    H is the one n x n allocation beside W, filled by blocks of rows of about
    ``SPIKE_BLOCK_BYTES``.  Rows lo:hi are (conj(S[:, lo:hi]).T + S[lo:hi]) / 2
    + W[lo:hi], with S = theta * outer(v, conj v) formed in v's dtype for
    those rows and columns only: the bits of ``symmetrize`` on the whole S,
    then the sum with W.  A real S is exactly symmetric (multiplication
    commutes) and (s + s) / 2 = s, so there the symmetrization is skipped;
    only an s above half the largest float, where s + s overflowed, reads
    otherwise.
    """
    v = spike.v
    n = noise.n
    if v.size != n:
        raise ValidationError(f"spike dimension {v.size} does not match noise dimension {n}")
    w = noise.entries
    cv = np.conj(v)
    real = not np.iscomplexobj(v)
    h = np.empty((n, n), dtype=np.result_type(v, 2.0, w))
    rows = max(1, SPIKE_BLOCK_BYTES // h[0].nbytes)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        s = np.outer(v[lo:hi], cv)
        s *= spike.theta
        if not real:
            cols = np.outer(v, cv[lo:hi])
            cols *= spike.theta
            sym = np.conjugate(cols.T, out=np.empty_like(s))
            del cols
            sym += s
            sym /= 2.0
            s = sym
        np.add(s, w[lo:hi], out=h[lo:hi])
        del s  # not held beside the next block or the Hermitian check
    return HermitianMatrix(h)


def sample_truth_or_haar(group: Group, x, p: float, seed) -> np.ndarray:
    """Pairwise observations Y_ij for i < j: the true difference x_i x_j^{-1}
    with probability p, otherwise an independent Haar element.

    Returns the n(n-1)/2 upper-triangle values in ``np.triu_indices(n, 1)``
    (row-major) order: integer residues (cyclic) or angles (circle).
    Y_ji = Y_ij^{-1} and Y_ii = identity are definitions, not data, so they are
    not stored.

    The true differences are computed first; they consume no draws.  The
    gathered x_i take the gathered x_j in place (``difference``'s ``out``),
    and the triangle mask is freed before the draws.  The uniforms and then
    the Haar elements are drawn in that order, as always, and the Haar
    elements are copied over the truth where u >= p, so the result is the
    truth array itself and u lives only as a boolean mask.
    """
    p = checked_real(p, "p")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    x = np.asarray(x)
    n = x.size
    if x.ndim != 1 or n < 2:
        raise ValidationError("x must be a vector of length >= 2")
    rng = as_generator(seed)
    m = n * (n - 1) // 2
    # x in the element dtype first, so that the gathered x_i can take the result
    x = x.astype(np.int64 if isinstance(group, CyclicGroup) else np.float64, copy=False)
    upper = _upper(n)
    truth = np.broadcast_to(x[:, None], (n, n))[upper]
    difference(group, truth, np.broadcast_to(x, (n, n))[upper], out=truth)
    del upper
    haar_wins = rng.random(m) >= p
    np.copyto(truth, haar_sample(group, m, rng), where=haar_wins)
    return truth


def _triangle_side(y: np.ndarray, group: Group) -> int:
    """n for an upper triangle of n(n-1)/2 observations, n >= 2; refuses
    anything else, residues outside [0, L) and non-finite angles."""
    if y.ndim != 1:
        raise ValidationError(f"observations must be a 1-D upper triangle, got shape {y.shape}")
    n = (1 + math.isqrt(1 + 8 * y.size)) // 2
    if y.size == 0 or n * (n - 1) // 2 != y.size:
        raise ValidationError(
            f"{y.size} observations are not the upper triangle of an n x n matrix with n >= 2")
    if isinstance(group, CyclicGroup):
        if not np.issubdtype(y.dtype, np.integer):
            raise ValidationError(f"{group} observations must be integer residues, got {y.dtype}")
        if np.any(y < 0) or np.any(y >= group.order):
            raise ValidationError(f"{group} observations must lie in [0, {group.order})")
    elif y.dtype.kind not in "iuf" or not np.isfinite(y).all():
        raise ValidationError("U(1) observations must be finite real angles")
    return n


def _symmetrized(chi: np.ndarray, chi_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries H_ij (above the diagonal) and H_ji (below) that observations
    with scaled characters chi = chi(Y_ij)/sqrt(n) and chi_inv =
    chi(Y_ij^{-1})/sqrt(n) give: (chi + conj(chi_inv))/2 and (chi_inv + conj(chi))/2.

    The same operations as ``symmetrize`` on the same values, so each entry
    has the bits that symmetrizing the n x n character matrix gives.  The
    lower entries are not the conjugates of the upper ones in signed zeros:
    at the identity both imaginary parts are +0.0.
    """
    up = np.conjugate(chi_inv)
    up += chi
    up /= 2.0
    low = np.conjugate(chi)
    low += chi_inv
    low /= 2.0
    return up, low


def sync_observation_matrix(group: Group, y: np.ndarray) -> HermitianMatrix:
    """Embed upper-triangle observations into Hermitian form: H_ij = chi(Y_ij)/sqrt(n).

    ``y`` is laid out as ``sample_truth_or_haar`` returns it; below the
    diagonal H_ji = chi(Y_ij^{-1})/sqrt(n), and the diagonal is
    chi(identity)/sqrt(n) = 1/sqrt(n).  H has the dtype of the character
    table: float64 with entries +-1/sqrt(n) for Z/2, complex128 otherwise.
    Each entry pair goes through ``_symmetrized`` (a <=1-ulp adjustment) to
    meet the exact Hermiticity contract; no n x n ``symmetrize`` runs.  The
    rule runs on the L residues of Z/L, which the observations index (for Z/2
    the character table itself, as y^{-1} = y), or on the U(1) observations.
    """
    y = np.asarray(y)
    n = _triangle_side(y, group)
    root_n = np.sqrt(n)
    keys, take = (np.arange(group.order), y) if isinstance(group, CyclicGroup) else (y, ...)
    up, low = _symmetrized(character(group, keys) / root_n,
                           character(group, difference(group, 0, keys)) / root_n)
    c = _mirrored(n, up, low, 1.0 / root_n, take)
    del up, low  # not held beside the Hermitian check
    return HermitianMatrix(c)
