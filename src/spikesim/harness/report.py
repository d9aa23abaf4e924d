"""Report containers and byte-deterministic CSV/JSON emission.

Float fields are serialized with Python's shortest round-trip repr, dict keys
are emitted sorted, and volatile metadata (wall time) is excluded unless asked
for, so rerunning the same config reproduces identical bytes and
JSON -> load -> emit is idempotent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .. import __version__
from ..errors import ValidationError, checked_real
from .config import SweepConfig, echoed, from_json

CSV_COLUMNS = ("group", "n", "noise_model", "theta", "trial", "seed",
               "empirical_loss", "prediction_mean", "prediction_stderr")


@dataclass(frozen=True)
class TrialRecord:
    theta_index: int
    theta: float
    trial: int
    seed: str
    empirical_loss: float


@dataclass(frozen=True)
class ThetaSummary:
    theta: float
    empirical_mean: float
    empirical_std: float
    prediction_mean: float
    prediction_stderr: float
    mc_samples: int


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    records: tuple[TrialRecord, ...]
    summaries: tuple[ThetaSummary, ...]
    version: str = __version__
    wall_time_s: float | None = None


def summarize_trials(theta: float, losses, prediction) -> ThetaSummary:
    """Aggregate per-trial losses with the per-theta prediction."""
    losses = np.asarray(losses, dtype=np.float64)
    std = float(losses.std(ddof=1)) if losses.size > 1 else 0.0
    return ThetaSummary(theta=float(theta), empirical_mean=float(losses.mean()),
                        empirical_std=std, prediction_mean=prediction.mean,
                        prediction_stderr=prediction.stderr,
                        mc_samples=prediction.n_samples)


def _fmt(x: float) -> str:
    """Shortest round-trip decimal for a float (stable across runs)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return repr(float(x))


def _write_csv(columns, rows, path: str) -> None:
    """Write ``rows``, dicts holding each of ``columns``, under a header line:
    a float cell through ``_fmt``, an int or str one through ``str``.  Every
    line is built before the file is opened, so a non-finite value raises
    ValueError and leaves no file."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row[c]) if isinstance(row[c], float) else str(row[c])
                       for c in columns) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(report: SweepReport, path: str) -> None:
    """One row per (theta, trial); per-theta prediction columns repeated."""
    cfg = report.config
    head = {"group": str(cfg.group), "n": cfg.n, "noise_model": cfg.noise_model}
    summaries = [asdict(s) for s in report.summaries]
    _write_csv(CSV_COLUMNS, ({**head, **summaries[rec.theta_index], **asdict(rec)}
                             for rec in report.records), path)


def _write_json(report, payload: dict, path: str, include_timing: bool) -> None:
    """Write ``payload`` and the report's meta entry as sorted, indented JSON;
    a non-finite float raises ValueError before the file is opened, as in
    ``_write_csv``.  The wall time is written only when asked for."""
    meta = {"package": "spikesim", "version": report.version}
    if include_timing and report.wall_time_s is not None:
        meta["wall_time_s"] = report.wall_time_s
    text = json.dumps({**payload, "meta": meta}, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_sweep_json(report: SweepReport, path: str, include_timing: bool = False) -> None:
    _write_json(report, {"config": report.config.echo(),
                         "records": [asdict(r) for r in report.records],
                         "summaries": [asdict(s) for s in report.summaries]},
                path, include_timing)


def _check_sweep_report(config: SweepConfig, records, summaries) -> None:
    """A report must agree with itself: each record's theta is the grid's at
    its theta_index, each (theta, trial) cell of the config has one record,
    and each grid theta has one summary, in grid order, of the config's Monte
    Carlo size."""
    grid = config.theta_grid
    for r in records:
        if not (0 <= r.theta_index < len(grid) and r.theta == grid[r.theta_index]):
            raise ValidationError(f"record theta_index {r.theta_index}, theta {r.theta!r} "
                                  f"is not on the theta grid {list(grid)}")
    cells = [(i, t) for i in range(len(grid)) for t in range(config.trials)]
    if sorted((r.theta_index, r.trial) for r in records) != cells:
        raise ValidationError(f"records must give each trial 0..{config.trials - 1} "
                              "of each grid theta exactly once")
    if [(s.theta, s.mc_samples) for s in summaries] != [(t, config.mc_samples) for t in grid]:
        raise ValidationError(f"summaries must give each theta of {list(grid)} in order, "
                              f"with mc_samples {config.mc_samples}")


def load_sweep_report(path: str) -> SweepReport:
    """Read a sweep ``report.json``; JSON not shaped like a report, holding a
    non-finite number, or disagreeing with itself is a ValidationError."""

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValidationError(f"{path}: not a sweep report, non-finite number {text}")
        return value

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_float=finite, parse_constant=finite)
    try:
        config = SweepConfig.from_echo(data["config"])
        records = tuple(from_json(TrialRecord, r) for r in data["records"])
        summaries = tuple(from_json(ThetaSummary, s) for s in data["summaries"])
        _check_sweep_report(config, records, summaries)
        meta = data.get("meta", {})
        version = echoed(meta.get("version", __version__), "version", str)
        wall_time_s = meta.get("wall_time_s")
        if wall_time_s is not None:
            wall_time_s = checked_real(wall_time_s, "wall_time_s")
    except KeyError as exc:
        raise ValidationError(
            f"{path}: not a sweep report, missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, ValidationError) as exc:
        raise ValidationError(f"{path}: not a sweep report ({exc})") from None
    return SweepReport(config=config, records=records, summaries=summaries,
                       version=version, wall_time_s=wall_time_s)


@dataclass(frozen=True)
class PairComparison:
    i: int
    j: int
    mean_a: float
    stderr_a: float
    mean_b: float
    stderr_b: float

    @property
    def abs_diff(self) -> float:
        return abs(self.mean_a - self.mean_b)

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.stderr_a, self.stderr_b)


@dataclass(frozen=True)
class UniversalityReport:
    config_echo: dict
    pairs: tuple[PairComparison, ...]
    version: str = __version__
    wall_time_s: float | None = None

    @property
    def max_abs_diff(self) -> float:
        return max(p.abs_diff for p in self.pairs)

    @property
    def max_sigma(self) -> float:
        """Largest |difference| / combined standard error over pairs."""
        return max(p.abs_diff / p.combined_stderr if p.combined_stderr > 0 else math.inf
                   for p in self.pairs)


UNIVERSALITY_CSV_COLUMNS = ("i", "j", "mean_a", "stderr_a", "mean_b", "stderr_b",
                            "abs_diff", "combined_stderr")


def _pair_row(p: PairComparison) -> dict:
    return {**asdict(p), "abs_diff": p.abs_diff, "combined_stderr": p.combined_stderr}


def write_universality_csv(report: UniversalityReport, path: str) -> None:
    _write_csv(UNIVERSALITY_CSV_COLUMNS, (_pair_row(p) for p in report.pairs), path)


def write_universality_json(report: UniversalityReport, path: str,
                            include_timing: bool = False) -> None:
    _write_json(report, {"config": report.config_echo,
                         "pairs": [_pair_row(p) for p in report.pairs]},
                path, include_timing)
