"""Experiment harness: config files, sweeps, A/B runs, reports, SVG, CLI.

Determinism is load-bearing here: the same config must produce byte-identical
artifacts regardless of worker count or output location, and JSON reports must
survive a load/emit round trip unchanged.
"""

import hashlib
import json
import math
import os
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from spikesim import (EnsembleSpec, SpikeConfig, ValidationError, outlier_eigenvalue,
                      overlap_limit, parse_group, predict_sync_loss, residual_variance_limit,
                      sample_goe, secular_root, z2_mismatch_exact)
from spikesim import ensembles as ensembles_module
from spikesim import groups as groups_module
from spikesim import predictions as predictions_module
from spikesim.ensembles import ENTRY_LAWS
from spikesim.groups import default_loss, rounding_rule
from spikesim.harness import (
    SweepConfig,
    UniversalityConfig,
    load_sweep_report,
    parse_ensemble,
    parse_sweep_config,
    parse_universality_config,
    render_sweep_svg,
    run_sweep,
    run_universality_ab,
    run_universality_config,
    write_sweep_csv,
    write_sweep_json,
    write_sweep_svg,
    write_universality_csv,
    write_universality_json,
)
from spikesim.harness import sweep as sweep_module
from spikesim.harness import universality as universality_module
from spikesim.harness.cli import main
from spikesim.harness.config import ensemble_text
from spikesim.harness.report import (
    CSV_COLUMNS,
    PairComparison,
    SweepReport,
    TrialRecord,
    UniversalityReport,
    summarize_trials,
)
from spikesim.harness.universality import _draw_pairs, _signal_vector, check_moment_match
from spikesim.matrices import HermitianMatrix
from spikesim.rng import stream

import reference

Z2 = parse_group("Z/2")
CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


SWEEP_TEXT = """\
# tiny smoke sweep
group = Z/2
n = 60
theta_grid = 1.5, 2.5
trials = 3
noise_model = truth-or-haar
mc_samples = 2000
master_seed = 5
"""


def tiny_sweep_config(**overrides):
    """A small Z/2 sweep; rounding and loss follow the group unless given."""
    group = overrides.get("group", Z2)
    base = dict(group=Z2, n=60, theta_grid=(1.5, 2.5), trials=3, noise_model="truth-or-haar",
                rounding=rounding_rule(group), loss=default_loss(group), mc_samples=2000,
                master_seed=5)
    return SweepConfig(**{**base, **overrides})


# -------------------------------------------------------------- config files

def test_parse_sweep_config_full(tmp_path):
    path = write_config(tmp_path, SWEEP_TEXT)
    cfg = parse_sweep_config(path)
    assert cfg.group == Z2
    assert cfg.n == 60
    assert cfg.theta_grid == (1.5, 2.5)
    assert cfg.trials == 3
    assert cfg.noise_model == "truth-or-haar"
    assert cfg.rounding == "nearest-character"  # group default
    assert cfg.loss == "mismatch"
    assert cfg.mc_samples == 2000
    assert cfg.master_seed == 5
    assert cfg.out_dir == "."


def test_parse_sweep_config_integral_decimal_text(tmp_path):
    # "60.0" reads as 60, as the same value built in Python or loaded from
    # JSON does; the digits are read without a float, so a seed above 2**53
    # keeps every one of them
    text = SWEEP_TEXT.replace("n = 60", "n = 60.0").replace(
        "master_seed = 5", "master_seed = 18446744073709551617.0")
    cfg = parse_sweep_config(write_config(tmp_path, text))
    assert cfg.n == 60 and type(cfg.n) is int
    assert cfg.master_seed == 18446744073709551617
    for bad in ("60.5", "nan", "inf", "60.0.0", ".0"):
        path = write_config(tmp_path, SWEEP_TEXT.replace("n = 60", f"n = {bad}"))
        with pytest.raises(ValidationError, match=re.escape(f"expected an integer, got {bad!r}")):
            parse_sweep_config(path)


def test_parse_sweep_config_space_separated_grid(tmp_path):
    text = SWEEP_TEXT.replace("theta_grid = 1.5, 2.5", "theta_grid = 1.5 2.0 2.5")
    cfg = parse_sweep_config(write_config(tmp_path, text))
    assert cfg.theta_grid == (1.5, 2.0, 2.5)


def test_parse_sweep_config_circle_defaults(tmp_path):
    text = SWEEP_TEXT.replace("group = Z/2", "group = U(1)")
    cfg = parse_sweep_config(write_config(tmp_path, text))
    assert cfg.rounding == "phase"
    assert cfg.loss == "one-minus-cos"


@pytest.mark.parametrize("mangle,fragment", [
    (lambda t: t + "bogus_key = 1\n", "unknown config keys"),
    (lambda t: t + "n = 61\n", "duplicate key"),
    (lambda t: t.replace("master_seed = 5\n", ""), "missing required keys"),
    (lambda t: t.replace("n = 60", "n = sixty"), "expected an integer"),
    (lambda t: t.replace("n = 60", "just some words"), "expected 'key = value'"),
    (lambda t: t.replace("1.5, 2.5", "0.8, 2.5"), "exceed 1"),
    pytest.param(lambda t: t.replace("theta_grid = 1.5, 2.5", "theta_grid ="),
                 "theta_grid must hold at least one", id="empty-theta-grid"),
    # each group fixes its own rounding rule and sweep loss
    pytest.param(lambda t: t + "round = nearest-character\n", "unknown config keys",
                 id="round-key-removed"),
    pytest.param(lambda t: t + "loss = mismatch\n", "unknown config keys",
                 id="loss-key-removed"),
])
def test_parse_sweep_config_errors(tmp_path, mangle, fragment):
    path = write_config(tmp_path, mangle(SWEEP_TEXT))
    with pytest.raises(ValidationError, match=fragment):
        parse_sweep_config(path)


def test_sweep_config_validation():
    with pytest.raises(ValidationError, match="n must be"):
        tiny_sweep_config(n=1)
    with pytest.raises(ValidationError, match="trials"):
        tiny_sweep_config(trials=0)
    with pytest.raises(ValidationError, match="noise_model"):
        tiny_sweep_config(noise_model="white")
    with pytest.raises(ValidationError, match="mc_samples"):
        tiny_sweep_config(mc_samples=10)
    with pytest.raises(ValidationError, match="rounds by"):
        tiny_sweep_config(rounding="phase")
    with pytest.raises(ValidationError, match="uses loss"):
        tiny_sweep_config(loss="one-minus-cos")
    # p = theta/sqrt(n) must stay a probability for the sampling model
    with pytest.raises(ValidationError, match="theta/sqrt"):
        tiny_sweep_config(n=4, theta_grid=(3.0,))
    tiny_sweep_config(n=4, theta_grid=(3.0,), noise_model="gaussian-additive")


@pytest.mark.parametrize("text", ["U(1)", "Z/5"])
def test_sweep_config_refuses_group_text(text):
    # the group is read by its type: a str would fail every CyclicGroup test
    # and pass as the circle
    group = parse_group(text)
    with pytest.raises(ValidationError, match=re.escape(
            f"group must be a CyclicGroup or CircleGroup, got {text!r}")):
        tiny_sweep_config(group=text, rounding=rounding_rule(group), loss=default_loss(group))


def test_sweep_config_echo_round_trip():
    cfg = tiny_sweep_config(out_dir="/tmp/somewhere")
    echo = cfg.echo()
    assert "out_dir" not in echo  # location is not experiment identity
    back = SweepConfig.from_echo(echo)
    assert back == tiny_sweep_config(out_dir=".")
    # each group's rounding and loss survive the echo, as does the noise model
    for other in (tiny_sweep_config(group=parse_group("U(1)"), noise_model="gaussian-additive"),
                  tiny_sweep_config(group=parse_group("Z/5"), theta_grid=(1.5, 2.0, 3.0))):
        assert SweepConfig.from_echo(json.loads(json.dumps(other.echo()))) == other


def test_config_key_tables_are_the_fields(tmp_path):
    # a file sets each field under its name; a sweep file all but the two its
    # group fixes (test_parse_sweep_config_errors refuses those two keys)
    text = SWEEP_TEXT + "out_dir = elsewhere\n"
    assert parse_sweep_config(write_config(tmp_path, text)) == \
        tiny_sweep_config(out_dir="elsewhere")
    univ = UniversalityConfig(ensemble_a="goe", ensemble_b="goe", n=20, theta=2.0,
                              trials=2, master_seed=0, out_dir="elsewhere")
    text = "".join(f"{key} = {value}\n" for key, value in asdict(univ).items())
    assert parse_universality_config(write_config(tmp_path, text, "univ.cfg")) == univ
    # a universality echo is the file keys less the output location
    assert list(univ.echo()) == [f.name for f in fields(UniversalityConfig)
                                 if f.name != "out_dir"]


def test_parse_sweep_config_defaults(tmp_path):
    text = SWEEP_TEXT.replace("mc_samples = 2000\n", "")
    cfg = parse_sweep_config(write_config(tmp_path, text))
    assert (cfg.mc_samples, cfg.out_dir) == (1_000_000, ".")


def test_sweep_config_overrides(tmp_path):
    # --seed and --out-dir replace the config's values for both run commands
    for command, text, report in (("sweep", SWEEP_TEXT, "report.json"),
                                  ("universality", UNIV_TEXT, "universality.json")):
        cfg_path = write_config(tmp_path, text, name=f"{command}.cfg")
        out_dir = tmp_path / f"{command}-moved"
        assert main([command, cfg_path, "--seed", "9", "--out-dir", str(out_dir),
                     "--format", "json"]) == 0
        assert read_json(out_dir / report)["config"]["master_seed"] == 9


def test_parse_ensemble_forms():
    assert parse_ensemble("goe", 8).kind == "goe"
    assert parse_ensemble("GUE", 8).field == "C"
    spec = parse_ensemble("wigner:rademacher", 8)
    assert (spec.kind, spec.entry_law, spec.field) == ("generalized-wigner", "rademacher", "R")
    cspec = parse_ensemble("wigner:gaussian:c", 8)
    assert cspec.field == "C"
    for bad in ("wishart", "wigner:cauchy", "wigner:gaussian:q", "wigner"):
        with pytest.raises(ValidationError):
            parse_ensemble(bad, 8)


def test_ensemble_text_round_trip():
    n = 8
    specs = [EnsembleSpec(kind="goe", n=n), EnsembleSpec(kind="gue", n=n, field="C")]
    specs += [EnsembleSpec(kind="generalized-wigner", n=n, entry_law=law, field=field)
              for law in ENTRY_LAWS for field in ("R", "C")]
    for spec in specs:
        assert parse_ensemble(ensemble_text(spec), n) == spec
    assert [ensemble_text(s) for s in specs[:4]] == [
        "goe", "gue", "wigner:gaussian", "wigner:gaussian:c"]


def test_ensemble_text_marks_a_variance_profile():
    # the derived echo of a profiled arm must not read as the flat ensemble
    n = 60
    kw = small_ab_kwargs(n=n)
    profiled = EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                            variance_profile=_diag_only_profile(n))
    report = run_universality_ab(**{**kw, "spec_b": profiled})
    assert report.config_echo["ensemble_a"] == "goe"
    assert report.config_echo["ensemble_b"] == "wigner:gaussian+profile"
    complex_profiled = EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                                    field="C", variance_profile=_diag_only_profile(n))
    assert ensemble_text(complex_profiled) == "wigner:gaussian:c+profile"
    # the text names no profile, so it cannot be read back as an input
    for spec in (profiled, complex_profiled):
        with pytest.raises(ValidationError):
            parse_ensemble(ensemble_text(spec), n)


UNIV_TEXT = """\
ensemble_a = goe
ensemble_b = wigner:rademacher
n = 60
theta = 2.0
trials = 4
master_seed = 3
"""


def test_parse_universality_config(tmp_path):
    cfg = parse_universality_config(write_config(tmp_path, UNIV_TEXT))
    assert cfg.ensemble_a == "goe"
    assert cfg.ensemble_b == "wigner:rademacher"
    assert (cfg.phi, cfg.n_pairs, cfg.signal) == ("tanh", 10, "haar")  # defaults


@pytest.mark.parametrize("path", sorted(CONFIGS_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_every_shipped_config_parses(path):
    # the file name says which command runs it, and its header shows that command
    command = path.name.split("-")[0]
    parse = {"sweep": parse_sweep_config, "universality": parse_universality_config}[command]
    parse(str(path))
    assert f"spikesim {command} configs/{path.name}" in path.read_text(encoding="utf-8")


def test_universality_config_validation():
    good = dict(ensemble_a="goe", ensemble_b="goe", n=20, theta=2.0, phi="tanh",
                n_pairs=3, trials=2, master_seed=0)
    UniversalityConfig(**good)
    for key, val, msg in [("trials", 1, "at least 2"), ("phi", "exp", "phi"),
                          ("signal", "spike", "signal"), ("theta", 0.0, "positive"),
                          ("n_pairs", 0, "n_pairs"), ("n", 1, "n must be"),
                          ("ensemble_a", "wishart", "unrecognized")]:
        with pytest.raises(ValidationError, match=msg):
            UniversalityConfig(**{**good, key: val})


def _universality_config(**overrides):
    return UniversalityConfig(**{**dict(ensemble_a="goe", ensemble_b="goe", n=20, theta=2.0,
                                        trials=2, master_seed=0), **overrides})


@pytest.mark.parametrize("make, cls, names", [
    (tiny_sweep_config, SweepConfig, ("n", "trials", "mc_samples", "master_seed")),
    (_universality_config, UniversalityConfig, ("n", "n_pairs", "trials", "master_seed")),
], ids=["sweep", "universality"])
def test_config_int_fields_refuse_non_integers(make, cls, names):
    # an int field built from Python takes what a loaded report takes: 60.0 is
    # 60, while 1.5, True and "60" are refused rather than truncated or run,
    # so every config that runs writes a report that loads
    assert tuple(f.name for f in fields(cls) if f.type == "int") == names
    base = make()
    for name in names:
        value = getattr(base, name)
        for bad in (value + 0.5, True, str(value), None):
            with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
                make(**{name: bad})
        for good in (float(value), np.int64(value)):
            cfg = make(**{name: good})
            assert cfg == base and type(getattr(cfg, name)) is int
            assert type(cfg.echo()[name]) is int


@pytest.mark.parametrize("name, bad", [("theta", True), ("theta", "2"), ("phi", ["tanh"])])
def test_config_float_and_str_fields_refuse_other_types(name, bad):
    # read as a loaded report reads them: a report echoing "theta": true could
    # not be loaded, and a list phi used to fail as an unhashable TypeError
    with pytest.raises(ValidationError, match=f"^{name} must be a "):
        _universality_config(**{name: bad})
    cfg = _universality_config(theta=2)
    assert type(cfg.theta) is float and type(cfg.echo()["theta"]) is float


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("make, name", [
    (make, f.name) for make, cls in ((tiny_sweep_config, SweepConfig),
                                     (_universality_config, UniversalityConfig))
    for f in fields(cls) if f.type == "int"])
def test_config_int_fields_refuse_non_finite(make, name, bad):
    # int() of inf raised OverflowError and of nan a bare ValueError, neither
    # naming the field
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {bad!r}"):
        make(**{name: bad})


@pytest.mark.parametrize("bad, message", [
    ("23", "theta_grid must hold at least one theta value"),
    (2.0, "theta_grid must hold at least one theta value"),
    (None, "theta_grid must hold at least one theta value"),
    (np.array(2.0), "theta_grid must hold at least one theta value"),
    (["2", "3"], "theta_grid item must be a real number, got '2'"),
    ((2.0, True), "theta_grid item must be a real number, got True"),
], ids=["str", "float", "none", "0-d-array", "str-items", "bool-item"])
def test_sweep_theta_grid_refuses_other_types(bad, message):
    # "23" used to run as (2.0, 3.0), ["2", "3"] built a config whose report
    # the reader refuses, and 2.0 failed as a TypeError
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        tiny_sweep_config(theta_grid=bad)
    for good in ((1.5, 2), [1.5, 2.5], np.array([1.5, 2.5]), (t for t in (1.5, 2.5))):
        cfg = tiny_sweep_config(theta_grid=good)
        assert cfg.theta_grid in ((1.5, 2.0), (1.5, 2.5))
        assert all(type(t) is float for t in cfg.theta_grid)


def _theta_entry_points():
    """Each public entry point that reads a theta, as a call of theta alone."""
    v = np.full(40, 40 ** -0.5)
    w = sample_goe(40, stream(3, "noise"))
    return {
        "outlier_eigenvalue": outlier_eigenvalue,
        "overlap_limit": overlap_limit,
        "residual_variance_limit": residual_variance_limit,
        "z2_mismatch_exact": z2_mismatch_exact,
        "predict_sync_loss": lambda t: predict_sync_loss(Z2, t, n_samples=1000, seed=1),
        "SpikeConfig": lambda t: SpikeConfig(t, v).theta,
        "secular_root": lambda t: secular_root(w, v, t),
        "UniversalityConfig.theta": lambda t: _universality_config(theta=t).theta,
        "SweepConfig.theta_grid": lambda t: tiny_sweep_config(theta_grid=(t,)).theta_grid,
    }


@pytest.mark.parametrize("name", list(_theta_entry_points()))
def test_theta_read_by_one_rule(name):
    # one rule for a real: "2.5" and True used to run as 2.5 and 1.0 at some
    # of these and be refused at others; a numpy real runs as the builtin
    # float it equals, down to the last bit of the result
    call = _theta_entry_points()[name]
    for bad in ("2.5", True, None):
        with pytest.raises(ValidationError,
                           match=f"^theta(_grid item)? must be a real number, got {bad!r}$"):
            call(bad)
    assert repr(call(np.float64(2.5))) == repr(call(2.5))


def test_universality_trials_and_seed_read_by_one_rule(tmp_path):
    # numpy integers and integral floats run as the builtin ints they equal:
    # an np.int64 trials or seed used to run every trial and then fail to
    # write the report, and 3.0 trials failed inside range()
    kw = small_ab_kwargs()
    written = []
    for trials, seed in ((3, 4), (np.int64(3), np.int64(4)), (3.0, 4.0)):
        path = tmp_path / f"universality-{len(written)}.json"
        write_universality_json(run_universality_ab(**{**kw, "trials": trials, "seed": seed}),
                                str(path))
        written.append(path.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    # a fraction, a bool or a str is refused and named: seed 1.5 used to run
    # and echo a master_seed that no config takes
    for name, bad in (("trials", 2.5), ("trials", True), ("seed", 1.5), ("seed", "x")):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {bad!r}$"):
            run_universality_ab(**{**kw, name: bad})


# -------------------------------------------------------------------- sweeps

def test_run_sweep_structure():
    report = run_sweep(tiny_sweep_config())
    assert len(report.records) == 6
    assert len(report.summaries) == 2
    assert [(r.theta_index, r.trial) for r in report.records] == \
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert len({r.seed for r in report.records}) == 6
    for rec in report.records:
        assert 0.0 <= rec.empirical_loss <= 1.0
    for summ in report.summaries:
        assert summ.mc_samples == 2000
        assert summ.prediction_stderr > 0
    assert report.wall_time_s is not None and report.wall_time_s > 0
    # losses should drop with theta on average
    assert report.summaries[1].empirical_mean <= report.summaries[0].empirical_mean


@pytest.mark.parametrize("noise_model", ["truth-or-haar", "gaussian-additive"])
@pytest.mark.parametrize("group", ["Z/2", "Z/5", "U(1)"], ids=lambda g: g.replace("/", ""))
def test_run_sweep_worker_invariance(tmp_path, group, noise_model):
    # n = 400 is where the BLAS thread count has moved eigenvector bits
    # (ROADMAP item 2); every run here gets the same thread count
    group = parse_group(group)
    for n in (60, 400):
        cfg = tiny_sweep_config(group=group, noise_model=noise_model, n=n)
        serial = run_sweep(cfg, workers=1)
        threaded = run_sweep(cfg, workers=3)
        assert serial.records == threaded.records
        assert serial.summaries == threaded.summaries
        p1, p3 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_sweep_json(serial, p1)
        write_sweep_json(threaded, p3)
        assert Path(p1).read_bytes() == Path(p3).read_bytes()


@pytest.mark.parametrize("n", [40, 200])
@pytest.mark.parametrize("noise_model", ["truth-or-haar", "gaussian-additive"])
@pytest.mark.parametrize("group", ["Z/2", "Z/3", "Z/4", "Z/5", "U(1)"])
def test_run_trial_matches_reference_pipeline(group, noise_model, n):
    # every stage but the shared eigensolver runs the slow reference: sampler,
    # embedding or spiked sum, n^2 rounding and the mean of n^2 losses
    group = parse_group(group)
    cfg = tiny_sweep_config(group=group, noise_model=noise_model, n=n, trials=2)
    for ti, theta in enumerate(cfg.theta_grid):
        for trial in range(cfg.trials):
            got = sweep_module._run_trial(cfg, ti, theta, trial).empirical_loss
            assert got.hex() == reference.trial_loss(cfg, ti, theta, trial).hex(), (theta, trial)


def test_run_sweep_other_groups():
    z5 = run_sweep(tiny_sweep_config(group=parse_group("Z/5"), n=50, theta_grid=(2.0,), trials=2,
                                     noise_model="gaussian-additive", mc_samples=1000,
                                     master_seed=1))
    assert len(z5.records) == 2
    circle = run_sweep(tiny_sweep_config(group=parse_group("U(1)"), n=50, theta_grid=(2.0,),
                                         trials=2, mc_samples=1000, master_seed=1))
    for rec in circle.records:
        assert 0.0 <= rec.empirical_loss <= 2.0


def test_z2_planted_vector_bits_match_complex_table(monkeypatch):
    # the gaussian-additive planted vector chi(x)/sqrt(n) is float64 from the
    # character on, with the bits the old complex table [1+0j, -1+0j] gave once
    # its real part was copied out; H stays float64 too
    xs, spikes, hs = [], [], []
    draw, build = sweep_module.haar_sample, sweep_module.build_spiked

    def record_draw(group, size, rng):
        xs.append(draw(group, size, rng))
        return xs[-1]

    def record_build(spike, noise):
        spikes.append(spike)
        hs.append(build(spike, noise))
        return hs[-1]

    monkeypatch.setattr(sweep_module, "haar_sample", record_draw)
    monkeypatch.setattr(sweep_module, "build_spiked", record_build)
    cfg = tiny_sweep_config(theta_grid=(2.0, 3.0), trials=2, noise_model="gaussian-additive")
    run_sweep(cfg)
    assert len(xs) == len(spikes) == 4
    for x, spike, h in zip(xs, spikes, hs):
        want = (reference.OLD_Z2_TABLE[x] / np.sqrt(cfg.n)).real.copy()
        assert spike.v.dtype == want.dtype == np.float64
        assert np.array_equal(spike.v.view(np.uint8), want.view(np.uint8))
        assert h.entries.dtype == np.float64


def test_u1_trial_peak_memory(traced_peak):
    # one U(1) gaussian-additive trial, in units of 16 n^2 bytes (one complex
    # n x n array): chains of full-size temporaries peaked at 4.63; with each
    # array allocated once, the spiked sum's signal and H beside the noise set
    # the peak at about 3.06 (3.1 while the Hermitian check of H made an n x n
    # conjugate copy).  With H filled by row blocks beside the noise, H and
    # the noise (2.26 at this n, where the row blocks and the Hermitian
    # check's temporaries add 0.26) and then H and the eigensolver's copy of
    # it (2.13) set the peak
    n = 400
    cfg = tiny_sweep_config(group=parse_group("U(1)"), n=n, theta_grid=(2.0,), trials=1,
                            noise_model="gaussian-additive")
    assert traced_peak(sweep_module._run_trial, cfg, 0, 2.0, 0) / (16 * n * n) <= 2.5


def test_z2_trial_peak_memory(traced_peak):
    # one Z/2 truth-or-haar trial, in units of 8 n^2 bytes (one int64 n x n
    # array): the observation sampler's triangles and the n x n products of
    # the residues and of the mismatch count peaked at 4.16; the residues
    # reduced in place and the mismatches counted by row blocks leave the
    # truth and the estimate side by side, about 2.15
    n = 500
    cfg = tiny_sweep_config(n=n, theta_grid=(2.0,), trials=1)
    assert traced_peak(sweep_module._run_trial, cfg, 0, 2.0, 0) / (8 * n * n) <= 2.3


def test_run_sweep_strong_signal_recovers():
    cfg = tiny_sweep_config(n=200, theta_grid=(50.0,), trials=1,
                            noise_model="gaussian-additive", mc_samples=1000, master_seed=2)
    report = run_sweep(cfg)
    assert report.records[0].empirical_loss < 0.01


def test_summarize_trials():
    class P:
        mean, stderr, n_samples = 0.25, 0.001, 5000
    s = summarize_trials(2.0, [0.1, 0.2, 0.3], P)
    assert s.empirical_mean == pytest.approx(0.2)
    assert s.empirical_std == pytest.approx(np.std([0.1, 0.2, 0.3], ddof=1))
    assert (s.prediction_mean, s.mc_samples) == (0.25, 5000)
    single = summarize_trials(2.0, [0.1], P)
    assert single.empirical_std == 0.0


# ------------------------------------------------------------------- reports

def test_csv_layout(tmp_path):
    report = run_sweep(tiny_sweep_config())
    path = str(tmp_path / "report.csv")
    write_sweep_csv(report, path)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 6
    row = lines[1].split(",")
    assert row[0] == "Z/2" and row[1] == "60" and row[2] == "truth-or-haar"
    # float fields round-trip exactly through repr
    assert float(row[6]) == report.records[0].empirical_loss
    assert float(row[7]) == report.summaries[0].prediction_mean


def test_json_round_trip_idempotent(tmp_path):
    # a loaded report re-emits byte-identical csv and json
    u1 = tiny_sweep_config(group=parse_group("U(1)"), noise_model="gaussian-additive")

    def emit(report, name):
        write_sweep_json(report, str(tmp_path / f"{name}.json"))
        write_sweep_csv(report, str(tmp_path / f"{name}.csv"))

    for cfg in (tiny_sweep_config(), u1):
        report = run_sweep(cfg)
        emit(report, "first")
        loaded = load_sweep_report(str(tmp_path / "first.json"))
        assert loaded.config == cfg
        assert loaded.records == report.records
        assert loaded.summaries == report.summaries
        emit(loaded, "again")
        for ext in ("json", "csv"):
            assert (tmp_path / f"first.{ext}").read_bytes() == \
                (tmp_path / f"again.{ext}").read_bytes()


def test_json_timing_opt_in(tmp_path):
    report = run_sweep(tiny_sweep_config(theta_grid=(1.5,), trials=1))
    quiet, timed = str(tmp_path / "q.json"), str(tmp_path / "t.json")
    write_sweep_json(report, quiet)
    write_sweep_json(report, timed, include_timing=True)
    assert "wall_time_s" not in read_json(quiet)["meta"]
    assert read_json(timed)["meta"]["wall_time_s"] == report.wall_time_s
    meta = read_json(quiet)["meta"]
    assert meta["package"] == "spikesim"


def test_nonfinite_values_refuse_to_serialize(tmp_path):
    cfg = tiny_sweep_config()
    rec = TrialRecord(theta_index=0, theta=1.5, trial=0, seed="s", empirical_loss=math.inf)
    summ = summarize_trials(1.5, [0.1, 0.2], type("P", (), {"mean": 0.1, "stderr": 0.0,
                                                            "n_samples": 2000}))
    report = SweepReport(config=cfg, records=(rec,), summaries=(summ,))
    with pytest.raises(ValueError):
        write_sweep_csv(report, str(tmp_path / "bad.csv"))
    # the JSON writers refuse too; no writer leaves a file behind
    with pytest.raises(ValueError):
        write_sweep_json(report, str(tmp_path / "bad.json"))
    pair = PairComparison(i=0, j=1, mean_a=math.nan, stderr_a=0.1, mean_b=0.2, stderr_b=0.1)
    univ = UniversalityReport(config_echo={"n": 4}, pairs=(pair,))
    with pytest.raises(ValueError):
        write_universality_json(univ, str(tmp_path / "bad-u.json"))
    assert os.listdir(tmp_path) == []


# Report digests of two small sweeps, each run from its file in configs/: a
# change to any byte a sweep writes shows up here.  Taken with numpy 2.4 /
# scipy 1.17 on scipy's OpenBLAS 0.3.30 (SkylakeX kernel, x86-64); a different
# LAPACK build may move the last bits of the eigenvectors and with them these
# digests.
PINNED_REPORTS = {
    "sweep-quick": {
        "csv": "a1b4768ca44819b7ea749c659a8870d8576c097318c62ea7e4350aeef8a63e62",
        "json": "4663354d8aab9770e6f0cd3b6b8e870014e1e8629083be2bd29d6edf7dac121c",
        "svg": "ced8cb82d60b5d03638859ea9b84dcf69a5647eb2341d6c05c06a13acdf0cd61",
    },
    "sweep-z5-truth-or-haar": {
        "csv": "7b3b5366970723067062959493b3cd8e30e27104ad4f5f160e15d69c19799015",
        "json": "5b91da0c9f3ceeb9d884f88825be3ee8d54be0f16e7e8ed4fb86ace3cabf888a",
        "svg": "c64cb2e0c937481e3ee22f2e15f8a29dcdffb3dcecbfb4bd80dcd29e5fbab827",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(tmp_path, name):
    out_dir = tmp_path / "out"
    assert main(["sweep", str(CONFIGS_DIR / f"{name}.cfg"), "--out-dir", str(out_dir)]) == 0
    digests = {ext: hashlib.sha256((out_dir / f"report.{ext}").read_bytes()).hexdigest()
               for ext in ("csv", "json", "svg")}
    assert digests == PINNED_REPORTS[name]


def _report_bytes(report, out_dir):
    out_dir.mkdir()
    write_sweep_csv(report, str(out_dir / "report.csv"))
    write_sweep_json(report, str(out_dir / "report.json"))
    write_sweep_svg(report, str(out_dir / "report.svg"))
    return {ext: (out_dir / f"report.{ext}").read_bytes() for ext in ("csv", "json", "svg")}


@pytest.mark.parametrize("group, noise_model", [("Z/3", "truth-or-haar"),
                                                ("Z/2", "truth-or-haar"),
                                                ("U(1)", "gaussian-additive")])
def test_run_sweep_bytes_match_old_kernels(tmp_path, monkeypatch, group, noise_model):
    group = parse_group(group)
    cfg = tiny_sweep_config(group=group, noise_model=noise_model, n=40, trials=2)
    new = _report_bytes(run_sweep(cfg, workers=2), tmp_path / "new")
    # the old kernels from the reference module; unlike a pinned digest, the
    # comparison holds on any CPU, and it covers U(1) and the predictions
    def embed(group, y):
        return HermitianMatrix(reference.sync_observation_matrix(group, y))

    for module, name, old in (
            (groups_module, "_residue", reference.residue),
            (groups_module, "round_to_group", reference.round_to_group),
            (predictions_module, "round_to_group", reference.round_to_group),
            (groups_module, "average_loss", reference.average_loss),
            (sweep_module, "average_loss", reference.average_loss),
            (ensembles_module, "sync_observation_matrix", embed),
            (sweep_module, "sync_observation_matrix", embed)):
        monkeypatch.setattr(module, name, old)
    assert _report_bytes(run_sweep(cfg, workers=2), tmp_path / "old") == new


# Report digests of two small universality runs, one real (GOE against
# Rademacher Wigner) and one complex (GUE against complex Gaussian Wigner).
# Same LAPACK caveat as the sweep digests above.
PINNED_UNIVERSALITY_TEXT = {
    "goe-rademacher": "ensemble_a = goe\nensemble_b = wigner:rademacher\nmaster_seed = 5\n",
    "gue-gaussian-c": "ensemble_a = gue\nensemble_b = wigner:gaussian:c\nmaster_seed = 6\n",
}
PINNED_UNIVERSALITY = {
    "goe-rademacher": {
        "csv": "8c8d45901a5719b53fae32d0e43f0ad3a4df9c4b80376030ebca2108c0eb0354",
        "json": "f027a259e05ff027d05de4505d6fa93f2a53a1e785dfd692f50a0ee3e3a05087",
    },
    "gue-gaussian-c": {
        "csv": "345e2ea770ac97cd993e9123b726fa9745e1b521c8dab09ae26e5b49cba9bcb5",
        "json": "3031b999eeb029a9de173d32d4472bd086928bfb3bff3c78e183ec86c46cbe55",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_UNIVERSALITY))
def test_universality_bytes_pinned(tmp_path, name):
    text = (PINNED_UNIVERSALITY_TEXT[name]
            + "n = 80\ntheta = 2.0\nphi = tanh\nn_pairs = 8\ntrials = 10\n")
    cfg_path = write_config(tmp_path, text, name="univ.cfg")
    out_dir = tmp_path / "out"
    assert main(["universality", cfg_path, "--out-dir", str(out_dir)]) == 0
    digests = {ext: hashlib.sha256((out_dir / f"universality.{ext}").read_bytes()).hexdigest()
               for ext in ("csv", "json")}
    assert digests == PINNED_UNIVERSALITY[name]


# -------------------------------------------------------------- universality

def small_ab_kwargs(n=60, trials=3, seed=0):
    v = _signal_vector("haar", n, "R", stream(seed, "signal"))
    pairs = _draw_pairs(n, 4, stream(seed, "pairs"))
    return dict(spec_a=EnsembleSpec(kind="goe", n=n),
                spec_b=EnsembleSpec(kind="generalized-wigner", n=n,
                                    entry_law="rademacher"),
                v=v, theta=2.0, phi="tanh", pairs=pairs, trials=trials, seed=seed)


def test_run_universality_ab_output_shape():
    report = run_universality_ab(**small_ab_kwargs())
    assert len(report.pairs) == 4
    for p in report.pairs:
        assert 0 <= p.i < p.j < 60
        assert p.stderr_a > 0 and p.stderr_b > 0
        assert abs(p.mean_a) <= 1.0 and abs(p.mean_b) <= 1.0  # tanh is bounded
    assert report.config_echo["ensemble_b"] == "wigner:rademacher"
    assert report.config_echo["signal"] == "explicit"


def _lumpy_profile(n):
    """Off-diagonal (0, 1) variance raised above the flat 1/n."""
    prof = np.full((n, n), 1.0 / n)
    bump = 0.4 / n
    prof[0, 1] = prof[1, 0] = 1.0 / n + bump
    prof[0, 0] -= bump
    prof[1, 1] -= bump
    return prof


def _diag_only_profile(n):
    """Flat off the diagonal; one diagonal entry moved by less than the
    row-sum tolerance."""
    prof = np.full((n, n), 1.0 / n)
    prof[0, 0] += 5e-9
    return prof


def test_universality_moment_gate():
    kw = small_ab_kwargs()
    # GOE vs GUE: different fields
    with pytest.raises(ValidationError, match="field"):
        run_universality_ab(**{**kw, "spec_b": EnsembleSpec(kind="gue", n=60, field="C")})
    # non-flat profile: off-diagonal moments differ from GOE's 1/n
    n = 60
    lumpy = EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                         variance_profile=_lumpy_profile(n))
    with pytest.raises(ValidationError, match="not matched"):
        run_universality_ab(**{**kw, "spec_b": lumpy})
    # the diagonal is exempt: a profile that differs from GOE's only there
    # (by less than the row-sum tolerance) is matched
    check_moment_match(kw["spec_a"], EnsembleSpec(kind="generalized-wigner", n=n,
                                                  entry_law="gaussian",
                                                  variance_profile=_diag_only_profile(n)))
    # GUE vs complex flat wigner agree off the diagonal
    ckw = small_ab_kwargs()
    ckw["spec_a"] = EnsembleSpec(kind="gue", n=60, field="C")
    ckw["spec_b"] = EnsembleSpec(kind="generalized-wigner", n=60,
                                 entry_law="gaussian", field="C")
    ckw["v"] = _signal_vector("haar", 60, "C", stream(0, "signal"))
    run_universality_ab(**ckw)


def test_moment_gate_matches_per_part_reference():
    n = 60
    specs = [EnsembleSpec(kind="goe", n=n), EnsembleSpec(kind="gue", n=n, field="C")]
    for field in ("R", "C"):
        specs += [EnsembleSpec(kind="generalized-wigner", n=n, entry_law=law, field=field)
                  for law in ENTRY_LAWS]
        specs += [EnsembleSpec(kind="generalized-wigner", n=n, entry_law="gaussian",
                               field=field, variance_profile=prof)
                  for prof in (np.full((n, n), 1.0 / n), _lumpy_profile(n),
                               _diag_only_profile(n))]
    refused = 0
    for a in specs:
        for b in specs:
            expected = reference.moment_gate(a, b)
            if expected is None:
                check_moment_match(a, b)
                continue
            refused += 1
            with pytest.raises(ValidationError) as info:
                check_moment_match(a, b)
            if expected == "field":
                assert "must share the same field" in str(info.value)
            else:
                assert "not matched" in str(info.value)
                assert f"max deviation {expected:.3e}" in str(info.value)
    assert 0 < refused < len(specs) ** 2


def test_universality_input_validation():
    kw = small_ab_kwargs()
    e1 = np.zeros(60)
    e1[0] = 1.0
    with pytest.raises(ValidationError, match="localized"):
        run_universality_ab(**{**kw, "v": e1})
    with pytest.raises(ValidationError, match="unit norm"):
        run_universality_ab(**{**kw, "v": 2.0 * kw["v"]})
    with pytest.raises(ValidationError, match="shape"):
        run_universality_ab(**{**kw, "v": kw["v"][:30]})
    with pytest.raises(ValidationError, match="at least 2"):
        run_universality_ab(**{**kw, "trials": 1})
    with pytest.raises(ValidationError, match="invalid index pair"):
        run_universality_ab(**{**kw, "pairs": [(3, 3)]})
    with pytest.raises(ValidationError, match="invalid index pair"):
        run_universality_ab(**{**kw, "pairs": [(0, 60)]})
    for phi in ("exp", np.cos):  # phi names a statistic; a callable is not one
        with pytest.raises(ValidationError, match="unknown statistic"):
            run_universality_ab(**{**kw, "phi": phi})
    with pytest.raises(ValidationError, match="real signal"):
        run_universality_ab(**{**kw, "v": kw["v"].astype(complex) * 1.0j})


def test_universality_pair_list_checked_before_any_trial(monkeypatch):
    kw = small_ab_kwargs()

    def no_trial(*args):
        raise AssertionError("a trial ran before the pair list was checked")

    monkeypatch.setattr(universality_module, "sample_ensemble", no_trial)
    with pytest.raises(ValidationError, match="at least one index pair"):
        run_universality_ab(**{**kw, "pairs": []})


def test_universality_refuses_non_integral_index():
    # a non-integral index is refused, never truncated: (0.5, 2) is not (0, 2),
    # and True is not index 1
    kw = small_ab_kwargs()
    for pairs in ([(0.5, 2)], [(0, np.float64(2.5))], [(1, 2), ("3", 4)], [(True, 2)]):
        with pytest.raises(ValidationError, match="pairs of integers"):
            run_universality_ab(**{**kw, "pairs": pairs})


def test_universality_complex_typed_real_signal_matches_real_signal():
    # a real-field pair takes a complex-typed v with zero imaginary part as
    # its real part: H stays real and the report is the one for the real v
    kw = small_ab_kwargs()
    real = run_universality_ab(**kw)
    typed = run_universality_ab(**{**kw, "v": kw["v"].astype(np.complex128)})
    assert typed.pairs == real.pairs


def test_universality_worker_invariance():
    # n = 400 as in the sweep worker test: the size where BLAS threads can show
    for n in (60, 400):
        kw = small_ab_kwargs(n=n)
        assert run_universality_ab(**kw).pairs == run_universality_ab(**kw, workers=2).pairs


def test_universality_control_within_noise():
    # same ensemble in both arms, independent streams: differences are pure
    # sampling noise (seed frozen; max sigma re-checked below 3).  The flat
    # signal always clears the delocalization gate, unlike a random draw at
    # this small n.
    cfg = UniversalityConfig(ensemble_a="goe", ensemble_b="goe", n=120, theta=2.0,
                             phi="tanh", n_pairs=6, trials=40, master_seed=44,
                             signal="uniform")
    report = run_universality_config(cfg)
    assert report.max_sigma <= 3.0
    assert report.max_abs_diff < 0.5


def test_draw_pairs_and_signal_vectors():
    pairs = _draw_pairs(10, 8, stream(1, "p"))
    assert len(set(pairs)) == 8
    for i, j in pairs:
        assert 0 <= i < j < 10
    with pytest.raises(ValidationError, match="distinct pairs"):
        _draw_pairs(4, 7, stream(1, "p"))
    flat = _signal_vector("uniform", 16, "R", stream(1, "s"))
    assert np.allclose(flat, 0.25)
    hc = _signal_vector("haar", 16, "C", stream(1, "s"))
    assert np.iscomplexobj(hc)
    assert np.linalg.norm(hc) == pytest.approx(1.0, abs=1e-12)


def test_universality_report_writers(tmp_path):
    report = run_universality_ab(**small_ab_kwargs(trials=2))
    csv_path = str(tmp_path / "u.csv")
    json_path = str(tmp_path / "u.json")
    write_universality_csv(report, csv_path)
    write_universality_json(report, json_path)
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "i,j,mean_a,stderr_a,mean_b,stderr_b,abs_diff,combined_stderr"
    assert len(lines) == 1 + len(report.pairs)
    payload = read_json(json_path)
    assert payload["config"]["ensemble_a"] == "goe"
    assert "wall_time_s" not in payload["meta"]
    # emission is stable
    again = str(tmp_path / "u2.json")
    write_universality_json(report, again)
    assert Path(json_path).read_bytes() == Path(again).read_bytes()


def test_pair_comparison_properties():
    p = PairComparison(i=0, j=1, mean_a=0.5, stderr_a=0.03, mean_b=0.46, stderr_b=0.04)
    assert p.abs_diff == pytest.approx(0.04)
    assert p.combined_stderr == pytest.approx(0.05)
    report = UniversalityReport(config_echo={}, pairs=(p,))
    assert report.max_sigma == pytest.approx(0.8)
    degenerate = PairComparison(i=0, j=1, mean_a=0.5, stderr_a=0.0, mean_b=0.4,
                                stderr_b=0.0)
    assert UniversalityReport(config_echo={}, pairs=(degenerate,)).max_sigma == math.inf


# ----------------------------------------------------------------------- svg

def test_svg_render_basic():
    report = run_sweep(tiny_sweep_config())
    svg = render_sweep_svg(report)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert "Z/2 truth-or-haar n=60" in svg
    assert svg.count("<circle") >= 2  # one marker per theta
    assert render_sweep_svg(report) == svg  # deterministic


def test_svg_single_point_and_multi_report():
    single = run_sweep(tiny_sweep_config(theta_grid=(1.5,), trials=2))
    assert "<svg" in render_sweep_svg(single)
    other = run_sweep(tiny_sweep_config(group=parse_group("Z/5"), n=50, theta_grid=(1.5,),
                                        trials=2, noise_model="gaussian-additive",
                                        mc_samples=1000, master_seed=1))
    combined = render_sweep_svg([single, other])
    assert "Z/2 truth-or-haar n=60" in combined
    assert "Z/5 gaussian-additive n=50" in combined


def test_svg_write_matches_render(tmp_path):
    report = run_sweep(tiny_sweep_config(theta_grid=(1.5,), trials=2))
    path = str(tmp_path / "plot.svg")
    write_sweep_svg(report, path)
    assert Path(path).read_text(encoding="utf-8") == render_sweep_svg(report)


def test_svg_requires_summaries():
    empty = SweepReport(config=tiny_sweep_config(), records=(), summaries=())
    with pytest.raises(ValueError):
        render_sweep_svg(empty)


# ----------------------------------------------------------------------- cli

def test_cli_predict(capsys):
    code = main(["predict", "--group", "Z/2", "--theta", "2.0", "--samples", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("Z/2 mismatch nearest-character theta=2\n")
    assert "closed_form=0.0797980267959431" in out
    # the closed form exists for Z/2 only
    for group, head in (("Z/5", "Z/5 mismatch nearest-character"),
                        ("U(1)", "U(1) one-minus-cos phase")):
        assert main(["predict", "--group", group, "--theta", "2.0", "--samples", "2000"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{head} theta=2\n")
        assert "closed_form=" not in out
    # the loss belongs to the group: there is no option to choose it
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--group", "Z/2", "--theta", "2.0", "--loss", "mismatch"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --loss" in capsys.readouterr().err


def test_cli_predict_rejects_subcritical(capsys):
    code = main(["predict", "--group", "Z/2", "--theta", "0.8", "--samples", "2000"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_writes_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SWEEP_TEXT)
    out_dir = str(tmp_path / "out")
    code = main(["sweep", cfg_path, "--out-dir", out_dir])
    assert code == 0
    for name in ("report.csv", "report.json", "report.svg"):
        assert os.path.exists(os.path.join(out_dir, name))
    out = capsys.readouterr().out
    assert out.count("theta=") == 2
    assert out.count("wrote ") == 3


def test_cli_sweep_format_selection(tmp_path):
    cfg_path = write_config(tmp_path, SWEEP_TEXT)
    out_dir = str(tmp_path / "csvonly")
    assert main(["sweep", cfg_path, "--format", "csv", "--out-dir", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "report.csv"))
    assert not os.path.exists(os.path.join(out_dir, "report.json"))
    assert os.path.exists(os.path.join(out_dir, "report.svg"))  # plot always lands


def test_cli_sweep_seed_override_changes_results(tmp_path):
    cfg_path = write_config(tmp_path, SWEEP_TEXT)
    d1, d2, d3 = (str(tmp_path / d) for d in ("s5", "s6", "s5again"))
    assert main(["sweep", cfg_path, "--out-dir", d1]) == 0
    assert main(["sweep", cfg_path, "--seed", "6", "--out-dir", d2]) == 0
    assert main(["sweep", cfg_path, "--out-dir", d3]) == 0
    read = lambda d: Path(d, "report.csv").read_bytes()
    assert read(d1) != read(d2)
    assert read(d1) == read(d3)  # same experiment elsewhere: same bytes


def test_cli_plot_matches_sweep_svg(tmp_path):
    cfg_path = write_config(tmp_path, SWEEP_TEXT)
    out_dir = str(tmp_path / "plotsrc")
    assert main(["sweep", cfg_path, "--out-dir", out_dir]) == 0
    replot = str(tmp_path / "replot.svg")
    assert main(["plot", os.path.join(out_dir, "report.json"), "--out", replot]) == 0
    original = Path(out_dir, "report.svg").read_bytes()
    assert Path(replot).read_bytes() == original


def test_cli_plot_overlay_needs_out(tmp_path, capsys):
    # the default output sits beside a single report; an overlay of several
    # would overwrite the first report's own plot, so it must name --out
    cfg_path = write_config(tmp_path, SWEEP_TEXT)
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir, seed in ((a, "1"), (b, "2")):
        assert main(["sweep", cfg_path, "--seed", seed, "--out-dir", str(out_dir)]) == 0
    before = {p: p.read_bytes() for p in (a / "report.svg", b / "report.svg")}
    capsys.readouterr()
    assert main(["plot", str(a / "report.json"), str(b / "report.json")]) == 2
    assert "--out" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(os.listdir(a)) == sorted(os.listdir(b)) == ["report.csv", "report.json",
                                                              "report.svg"]
    # a single report keeps its default, which rewrites the same bytes
    assert main(["plot", str(a / "report.json")]) == 0
    assert (a / "report.svg").read_bytes() == before[a / "report.svg"]
    overlay = tmp_path / "overlay.svg"
    assert main(["plot", str(a / "report.json"), str(b / "report.json"),
                 "--out", str(overlay)]) == 0
    assert overlay.read_bytes() not in before.values()


def test_cli_universality(tmp_path, capsys):
    cfg_path = write_config(tmp_path, UNIV_TEXT, name="univ.cfg")
    out_dir = str(tmp_path / "uout")
    code = main(["universality", cfg_path, "--out-dir", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "universality.csv"))
    assert os.path.exists(os.path.join(out_dir, "universality.json"))
    assert "max sigma=" in capsys.readouterr().out


def test_cli_error_exit_codes(tmp_path, capsys):
    bad_cfg = write_config(tmp_path, SWEEP_TEXT + "mystery = 1\n", name="bad.cfg")
    assert main(["sweep", bad_cfg]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert main(["sweep", str(tmp_path / "missing.cfg")]) == 2
    assert main(["plot", str(tmp_path / "missing.json")]) == 2
    # an empty theta grid is refused before anything is written
    empty_grid = write_config(tmp_path, SWEEP_TEXT.replace("theta_grid = 1.5, 2.5",
                                                           "theta_grid ="), name="empty.cfg")
    out_dir = tmp_path / "empty-grid"
    assert main(["sweep", empty_grid, "--out-dir", str(out_dir)]) == 2
    assert "theta_grid" in capsys.readouterr().err
    assert not out_dir.exists()
    # a JSON file that is not a sweep report is a usage error naming the key
    not_report = tmp_path / "not-a-report.json"
    not_report.write_text('{"config": {}}')
    assert main(["plot", str(not_report)]) == 2
    assert "missing key 'group'" in capsys.readouterr().err
    # so is JSON whose top level, a record or the meta entry is not an object
    echo = tiny_sweep_config().echo()
    for payload in ([], {"config": echo, "records": [1]},
                    {"config": echo, "records": [], "summaries": [], "meta": []}):
        not_report.write_text(json.dumps(payload))
        assert main(["plot", str(not_report)]) == 2
        assert "not a sweep report" in capsys.readouterr().err
    # a report holding a non-finite number is refused before anything is drawn
    good = tmp_path / "good"
    assert main(["sweep", write_config(tmp_path, SWEEP_TEXT), "--out-dir", str(good),
                 "--format", "json"]) == 0
    capsys.readouterr()
    text = (good / "report.json").read_text()
    field = f'"empirical_loss": {json.loads(text)["records"][0]["empirical_loss"]!r}'
    assert field in text
    for bad in ("NaN", "Infinity", "-Infinity", "1e999"):
        not_report.write_text(text.replace(field, f'"empirical_loss": {bad}', 1))
        svg = tmp_path / "nonfinite.svg"
        assert main(["plot", str(not_report), "--out", str(svg)]) == 2
        assert f"non-finite number {bad}" in capsys.readouterr().err
        assert not svg.exists()
    # so is a report that disagrees with itself: a truncated integer, a record
    # off the grid, a trial out of range, records or summaries missing, a record
    # given twice, summaries off the grid or of another MC size; and a field of
    # the wrong JSON type: a float given as a string or a bool, a seed or the
    # version as a number
    data = json.loads(text)
    mangles = (("config", "n", 60.7), ("config", "trials", 2.9),
               ("records", "theta_index", 9), ("records", "theta", 7.5),
               ("records", "trial", 7), ("records", None, 3), ("records", None, 7),
               ("summaries", None, 1),
               ("summaries", "theta", 7.5), ("summaries", "mc_samples", 10),
               ("records", "theta", repr(data["records"][0]["theta"])),
               ("records", "theta", "2.0x"), ("records", "empirical_loss", True),
               ("records", "seed", int(data["records"][0]["seed"])),
               ("config", "theta_grid", [repr(t) for t in data["config"]["theta_grid"]]),
               ("meta", "version", 1), ("meta", "wall_time_s", "fast"))
    # a mistyped config str is named, not tripped over
    mistyped = (("config", "group", 2), ("config", "noise_model", 5),
                ("config", "round", 1), ("config", "loss", None))
    for part, key, value in mangles + mistyped:
        bad_data = json.loads(text)
        if part in ("config", "meta"):
            bad_data[part][key] = value
        elif key is None:  # keep the first `value` rows, repeating the list
            bad_data[part] = (bad_data[part] * 2)[:value]
        else:
            bad_data[part][0][key] = value
        not_report.write_text(json.dumps(bad_data))
        svg = tmp_path / "inconsistent.svg"
        assert main(["plot", str(not_report), "--out", str(svg)]) == 2
        err = capsys.readouterr().err
        assert "not a sweep report" in err
        if (part, key, value) in mistyped:
            assert f"{key} must be a str, got {value!r}" in err
        assert not svg.exists()
    # an integral float is an integer
    data["config"]["n"] = 60.0
    not_report.write_text(json.dumps(data))
    assert main(["plot", str(not_report), "--out", str(tmp_path / "n60.svg")]) == 0


@pytest.mark.parametrize("bad", ["2", 2.5, None, True], ids=["str", "float", "none", "bool"])
def test_runs_refuse_non_integer_workers(bad):
    # workers is read as an integer, never compared as a str or a float
    for run in (lambda w: run_sweep(tiny_sweep_config(), workers=w),
                lambda w: run_universality_ab(**small_ab_kwargs(), workers=w)):
        with pytest.raises(ValidationError, match=f"^workers must be an integer >= 1, got {bad!r}$"):
            run(bad)
    assert run_sweep(tiny_sweep_config(), workers=np.int64(2)).records


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_refuses_workers_below_one(tmp_path, capsys, workers):
    sweep_cfg = write_config(tmp_path, SWEEP_TEXT)
    univ_cfg = write_config(tmp_path, UNIV_TEXT, name="univ.cfg")
    for command, cfg in (("sweep", sweep_cfg), ("universality", univ_cfg)):
        out_dir = tmp_path / command
        assert main([command, cfg, "--out-dir", str(out_dir), "--workers", workers]) == 2
        assert f"workers must be an integer >= 1, got {workers}" in capsys.readouterr().err
        assert not out_dir.exists()
