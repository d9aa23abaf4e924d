"""End-to-end acceptance gate.

Nine criteria covering the closed-form identities, the outlier transition,
the resolvent cross-checks, the bulk law, local-law decay, the Z/2 closed
form, the full three-group sweep against Monte Carlo predictions, ensemble
universality, and byte-level determinism.  Each test prints one PASS/FAIL
line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.

All seeds are frozen.  They were chosen once, up front, and the statistical
tolerances leave enough slack that typical seeds pass; nothing here was
tuned until it worked.
"""

import math
import os
from pathlib import Path

import numpy as np
import scipy.linalg

from spikesim import (
    BracketError,
    EnsembleSpec,
    SpikeConfig,
    build_spiked,
    eigvec_via_resolvent,
    local_law_residual,
    outlier_eigenvalue,
    overlap_limit,
    parse_group,
    predict_sync_loss,
    residual_variance_limit,
    sample_generalized_wigner,
    sample_goe,
    secular_root,
    semicircle_cauchy_transform,
    semicircle_cauchy_transform_deriv,
    stream,
    top_eigenpair,
    z2_mismatch_exact,
)
from spikesim.harness import (
    SweepConfig,
    run_sweep,
    run_universality_ab,
    write_sweep_csv,
    write_sweep_json,
    write_sweep_svg,
)
from spikesim.harness.universality import _draw_pairs, _signal_vector

Z2 = parse_group("Z/2")
Z5 = parse_group("Z/5")
U1 = parse_group("U(1)")

THETA_POINTS = (1.1, 1.5, 2.0, 3.0, 10.0)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def unit_gaussian(n, rng):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_criterion_1_closed_form_identities():
    exact = all(overlap_limit(t) + residual_variance_limit(t) == 1.0
                for t in THETA_POINTS)
    cauchy_dev = max(abs(semicircle_cauchy_transform(t + 1.0 / t) - 1.0 / t)
                     for t in THETA_POINTS)
    h = 1e-5
    deriv_dev = 0.0
    for z in (2.5, 3.0, 5.0, 2.5 + 0.7j, -4.0):
        fd = (semicircle_cauchy_transform(z + h)
              - semicircle_cauchy_transform(z - h)) / (2.0 * h)
        deriv_dev = max(deriv_dev, abs(semicircle_cauchy_transform_deriv(z) - fd))
    ok = exact and cauchy_dev <= 1e-12 and deriv_dev <= 1e-6
    report(1, ok, "overlap+residual exactly 1, "
           f"|G(theta+1/theta)-1/theta| <= {cauchy_dev:.2e} (tol 1e-12), "
           f"|G' - finite difference| <= {deriv_dev:.2e} (tol 1e-6)")


def test_criterion_2_outlier_transition():
    n, theta, seeds = 1000, 2.0, 20
    lam_errs, ov_errs = [], []
    for s in range(seeds):
        v = unit_gaussian(n, stream(10, "bbp-signal", s))
        w = sample_goe(n, stream(10, "bbp-noise", s))
        est = top_eigenpair(build_spiked(SpikeConfig(theta, v), w), planted=v)
        lam_errs.append(abs(est.eigenvalue - outlier_eigenvalue(theta)))
        ov_errs.append(abs(est.overlap_sq - overlap_limit(theta)))
    lam_med = float(np.median(lam_errs))
    ov_med = float(np.median(ov_errs))
    no_outlier = 0
    for s in range(seeds):
        v = unit_gaussian(n, stream(10, "sub-signal", s))
        w = sample_goe(n, stream(10, "sub-noise", s))
        try:
            secular_root(w.entries, v, 0.5)
        except BracketError:
            no_outlier += 1
    ok = lam_med <= 0.05 and ov_med <= 0.05 and no_outlier >= 18
    report(2, ok, f"median |outlier - 2.5| = {lam_med:.4f} (tol 0.05), "
           f"median |overlap^2 - 0.75| = {ov_med:.4f} (tol 0.05), "
           f"subcritical no-outlier {no_outlier}/20 (need >= 18)")


def test_criterion_3_resolvent_cross_checks():
    n, theta, seeds = 200, 2.0, 5
    worst_root, worst_proj = 0.0, 0.0
    for s in range(seeds):
        v = unit_gaussian(n, stream(15, "xcheck-signal", s))
        w = sample_goe(n, stream(15, "xcheck-noise", s))
        est = top_eigenpair(build_spiked(SpikeConfig(theta, v), w))
        root = secular_root(w.entries, v, theta)
        worst_root = max(worst_root, abs(root - est.eigenvalue))
        u = eigvec_via_resolvent(w.entries, est.eigenvalue, v)
        p_eig = np.outer(est.eigenvector, np.conj(est.eigenvector))
        p_res = np.outer(u, np.conj(u))
        worst_proj = max(worst_proj, float(np.linalg.norm(p_eig - p_res, "fro")))
    ok = worst_root <= 1e-8 and worst_proj <= 1e-6
    report(3, ok, f"max |secular root - eigenvalue| = {worst_root:.2e} (tol 1e-8), "
           f"max Frobenius projector gap = {worst_proj:.2e} (tol 1e-6)")


def test_criterion_4_semicircle_moments():
    n, seeds = 1000, 10
    spec = EnsembleSpec(kind="generalized-wigner", n=n, entry_law="rademacher")
    m2s, m4s, norms = [], [], []
    for s in range(seeds):
        w = sample_generalized_wigner(spec, stream(40, "semicircle", s))
        eigs = np.linalg.eigvalsh(w.entries)
        m2s.append(float(np.mean(eigs ** 2)))
        m4s.append(float(np.mean(eigs ** 4)))
        norms.append(float(np.max(np.abs(eigs))))
    m2, m4, norm = np.mean(m2s), np.mean(m4s), np.mean(norms)
    ok = (abs(m2 - 1.0) <= 0.05 and abs(m4 - 2.0) <= 0.1
          and all(abs(x - 2.0) <= 0.2 for x in norms))
    report(4, ok, f"mean m2 = {m2:.4f} (1 +- 0.05), mean m4 = {m4:.4f} (2 +- 0.1), "
           f"norms in [{min(norms):.3f}, {max(norms):.3f}] (2 +- 0.2)")


def test_criterion_5_local_law_decay():
    # Per (n, seed): one factorization of (2.5 I - W), residual taken as the
    # RMS of |R_ij| over 32 disjoint basis pairs (i, j) = (2k, 2k+1).  With
    # <e_i, e_j> = 0 this equals the RMS isotropic residual on a fixed probe
    # frame; averaging 32 probes tightens the per-seed scatter enough for a
    # 4-point slope fit (a single random probe leaves the fitted slope with
    # +-0.15 scatter across seed families, wider than the acceptance window).
    z = 2.5
    sizes = (250, 500, 1000, 2000)
    seeds = 20
    n_pairs = 32
    medians = []
    for n in sizes:
        per_seed = []
        for s in range(seeds):
            w = sample_goe(n, stream(1, "local-law", n, s)).entries
            a = z * np.eye(n) - w
            lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
            cols = scipy.linalg.lu_solve((lu, piv), np.eye(n, 2 * n_pairs),
                                         check_finite=False)
            vals = np.array([cols[2 * k, 2 * k + 1] for k in range(n_pairs)])
            per_seed.append(float(np.sqrt(np.mean(np.abs(vals) ** 2))))
        medians.append(float(np.median(per_seed)))
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])

    # tie the probe measurement back to the public diagnostic on one instance
    n0 = sizes[0]
    w0 = sample_goe(n0, stream(1, "local-law", n0, 0))
    e0, e1 = np.eye(n0)[:, 0], np.eye(n0)[:, 1]
    direct = local_law_residual(w0, z, e0, e1)
    a0 = z * np.eye(n0) - w0.entries
    probe = abs(np.linalg.solve(a0, e1)[0])
    ok = -0.7 <= slope <= -0.3 and abs(direct - probe) < 1e-12
    report(5, ok, f"log-log slope of median residual = {slope:.3f} "
           f"(window [-0.7, -0.3]); medians {[f'{m:.2e}' for m in medians]}")


def test_criterion_6_z2_closed_form_vs_mc():
    worst_ratio = 0.0
    value_at_2 = None
    ok = True
    for theta in (1.5, 2.0, 3.0):
        est = predict_sync_loss(Z2, theta, n_samples=10 ** 7, seed=60)
        dev = abs(est.mean - z2_mismatch_exact(theta))
        ok = ok and dev <= 4.0 * est.stderr
        worst_ratio = max(worst_ratio, dev / (4.0 * est.stderr))
        if theta == 2.0:
            value_at_2 = est.mean
            ok = ok and abs(value_at_2 - 0.0798) <= 0.001
    report(6, ok, f"max |MC - closed form| / (4 stderr) = {worst_ratio:.2f} at 1e7 "
           f"samples; value at theta=2 is {value_at_2:.5f} (0.0798 +- 0.001)")


def sweep_config_for(group, noise_model, out_dir="."):
    cyclic = group in (Z2, Z5)
    return SweepConfig(group=group, n=500, theta_grid=(1.5, 2.0, 2.5, 3.0),
                       trials=10, noise_model=noise_model,
                       rounding="nearest-character" if cyclic else "phase",
                       loss="mismatch" if cyclic else "one-minus-cos",
                       mc_samples=10 ** 6, master_seed=20, out_dir=out_dir)


def test_criterion_7_sweep_matches_predictions():
    worst = 0.0
    worst_cell = ""
    cells = 0
    ok = True
    for group in (Z2, Z5, U1):
        for noise_model in ("truth-or-haar", "gaussian-additive"):
            rep = run_sweep(sweep_config_for(group, noise_model), workers=4)
            for summ in rep.summaries:
                tol = max(0.02, 3.0 * (summ.empirical_std / math.sqrt(10)
                                       + summ.prediction_stderr))
                dev = abs(summ.empirical_mean - summ.prediction_mean)
                cells += 1
                if dev / tol > worst:
                    worst = dev / tol
                    worst_cell = f"{group} {noise_model} theta={summ.theta:g}"
                ok = ok and dev <= tol
    report(7, ok, f"all {cells} (group, noise, theta) cells within tolerance; "
           f"worst |empirical - predicted|/tol = {worst:.2f} ({worst_cell})")


def test_criterion_8_universality_ab():
    n, theta, trials, n_pairs = 400, 2.0, 200, 10
    v = _signal_vector("haar", n, "R", stream(30, "signal"))
    pairs = _draw_pairs(n, n_pairs, stream(30, "pairs"))
    goe = EnsembleSpec(kind="goe", n=n)
    rad = EnsembleSpec(kind="generalized-wigner", n=n, entry_law="rademacher")
    ab = run_universality_ab(goe, rad, v, theta, "tanh", pairs, trials, seed=30,
                             workers=4)
    control = run_universality_ab(goe, goe, v, theta, "tanh", pairs, trials,
                                  seed=31, workers=4)
    ok = ab.max_sigma <= 4.0 and control.max_sigma <= 3.0
    report(8, ok, f"GOE vs Rademacher max |diff|/stderr = {ab.max_sigma:.2f} "
           f"(tol 4); identical-ensemble control = {control.max_sigma:.2f} (tol 3)")


def test_criterion_9_byte_determinism(tmp_path):
    def emit(workers, sub):
        out = tmp_path / sub
        out.mkdir()
        rep = run_sweep(sweep_config_for(Z2, "truth-or-haar", str(out)),
                        workers=workers)
        paths = {}
        for kind, writer in (("csv", write_sweep_csv), ("json", write_sweep_json),
                             ("svg", write_sweep_svg)):
            path = os.path.join(str(out), f"report.{kind}")
            writer(rep, path)
            paths[kind] = Path(path).read_bytes()
        return paths

    serial = emit(1, "serial")
    threaded = emit(4, "threaded")
    same = {k: serial[k] == threaded[k] for k in serial}
    ok = all(same.values())
    report(9, ok, "workers=1 and workers=4 artifacts byte-identical: "
           + ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in same.items()))
