"""Seeded samplers for the noise-matrix laws and the sync observation model.

All samplers are pure functions of (spec, seed): a seed may be an integer
(hashed into a named Philox stream, see ``rng``) or an explicit Generator.
Identical inputs give bit-identical outputs.  The noise samplers return
``HermitianMatrix`` objects, exactly Hermitian by construction.  The sync
observation model stores each pairwise observation once:
``sample_truth_or_haar`` returns the upper triangle Y_ij, i < j, as a flat
array, and ``sync_observation_matrix`` embeds it into a Hermitian matrix: for
a cyclic group by lookups into two L-entry tables of symmetrized entries, with
no n x n ``symmetrize``; for the circle by the character and ``symmetrize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .groups import (CyclicGroup, Group, character, character_table, difference,
                     haar_sample)
from .matrices import HermitianMatrix, symmetrize
from .rng import as_generator

ENSEMBLE_KINDS = ("goe", "gue", "generalized-wigner")
ENTRY_LAWS = ("gaussian", "rademacher", "uniform-centered")

ROW_SUM_TOL = 1e-8

# a given variance profile must keep n*sigma^2_ij within [1/GAMMA_W, GAMMA_W]
GAMMA_W = 10.0


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a noise ensemble.

    ``variance_profile`` is the n x n matrix of entry variances sigma^2_ij for
    the generalized Wigner kinds (default ``None``: flat 1/n, never
    materialized).  n*sigma^2_ij must lie within [1/``GAMMA_W``, ``GAMMA_W``].
    """

    kind: str
    n: int
    entry_law: str | None = None
    variance_profile: np.ndarray | None = None
    field: str = "R"

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        if int(self.n) != self.n or self.n < 1:
            raise ValidationError(f"dimension must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
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


def sample_goe(n: int, seed) -> HermitianMatrix:
    """Real symmetric Gaussian matrix: off-diagonals N(0, 1/n), diagonals N(0, 2/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    a = rng.standard_normal((n, n))
    h = a + a.T
    del a
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
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    m = n * (n - 1) // 2
    if prof is None:
        sig = sig_diag = np.sqrt(1.0 / n)
    else:
        sig, sig_diag = np.sqrt(prof[upper]), np.sqrt(np.diag(prof))
    if spec.field == "R":
        above = _unit_variance_draws(spec.entry_law, rng, m) * sig
    else:
        scale = sig / np.sqrt(2.0)
        re = _unit_variance_draws(spec.entry_law, rng, m) * scale
        im = _unit_variance_draws(spec.entry_law, rng, m) * scale
        above = re + 1.0j * im
    w = np.empty((n, n), dtype=above.dtype)
    w[upper] = above
    w.T[upper] = np.conj(above)
    d = _unit_variance_draws(spec.entry_law, rng, n) * sig_diag
    w[np.diag_indices(n)] = d
    return HermitianMatrix(w)


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
        theta = float(self.theta)
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
    (numpy's type promotion of the sum decides)."""
    v = spike.v
    if v.size != noise.n:
        raise ValidationError(f"spike dimension {v.size} does not match noise dimension {noise.n}")
    signal = np.outer(v, np.conj(v))
    signal *= spike.theta
    h = symmetrize(signal)
    del signal
    # in place unless numpy would promote the sum to another dtype
    w = noise.entries
    return HermitianMatrix(np.add(h, w, out=h if np.result_type(h, w) == h.dtype else None))


def sample_truth_or_haar(group: Group, x, p: float, seed) -> np.ndarray:
    """Pairwise observations Y_ij for i < j: the true difference x_i x_j^{-1}
    with probability p, otherwise an independent Haar element.

    Returns the n(n-1)/2 upper-triangle values in ``np.triu_indices(n, 1)``
    (row-major) order: integer residues (cyclic) or angles (circle).
    Y_ji = Y_ij^{-1} and Y_ii = identity are definitions, not data, so they are
    not stored.
    """
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    x = np.asarray(x)
    n = x.size
    if x.ndim != 1 or n < 2:
        raise ValidationError("x must be a vector of length >= 2")
    rng = as_generator(seed)
    m = n * (n - 1) // 2
    u = rng.random(m)
    haar = haar_sample(group, m, rng)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    truth = difference(group, np.broadcast_to(x[:, None], (n, n))[upper],
                       np.broadcast_to(x, (n, n))[upper])
    return np.where(u < p, truth, haar)


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


def _embedding_tables(group: CyclicGroup, root_n) -> tuple[np.ndarray, np.ndarray]:
    """The L entries H_ij (above the diagonal) and H_ji (below) that an
    observation Y_ij = k gives: (chi(k)/sqrt(n) + conj(chi(-k)/sqrt(n)))/2 and
    (chi(-k)/sqrt(n) + conj(chi(k)/sqrt(n)))/2.

    The same operations as ``symmetrize`` on the same values, so each entry
    has the bits that symmetrizing the n x n character matrix gives.  The
    lower table is not the conjugate of the upper one in signed zeros: at
    k = 0 both imaginary parts are +0.0.
    """
    chi = character_table(group) / root_n
    chi_inv = chi[difference(group, 0, np.arange(group.order))]
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
    The character matrix is symmetrized (a <=1-ulp adjustment) to meet the
    exact Hermiticity contract.  A cyclic group has only L such entries above
    the diagonal and L below, so both are looked up in two L-entry tables
    that hold them symmetrized already, and no n x n ``symmetrize`` runs; for
    Z/2 the tables are the character table itself, since y^{-1} = y.
    """
    y = np.asarray(y)
    n = _triangle_side(y, group)
    root_n = np.sqrt(n)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    if isinstance(group, CyclicGroup):
        up, low = _embedding_tables(group, root_n)
        c = np.empty((n, n), dtype=up.dtype)
        c[upper] = up[y]
        # c.T[upper] runs over (j, i) for i < j in the same row-major pair order
        c.T[upper] = low[y]
        np.fill_diagonal(c, 1.0 / root_n)
        return HermitianMatrix(c)
    above = character(group, y) / root_n
    c = np.empty((n, n), dtype=above.dtype)
    c[upper] = above
    del above  # each n(n-1)/2 temporary is freed once it is copied into c
    c.T[upper] = character(group, difference(group, 0, y)) / root_n
    np.fill_diagonal(c, 1.0 / root_n)
    return HermitianMatrix(symmetrize(c))
