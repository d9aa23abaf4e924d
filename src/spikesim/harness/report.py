"""Report containers and byte-deterministic CSV/JSON emission.

Float fields are serialized with Python's shortest round-trip repr, dict keys
are emitted sorted, and volatile metadata (wall time) is excluded unless asked
for, so rerunning the same config reproduces identical bytes and
JSON -> load -> emit is idempotent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .. import __version__
from ..errors import ValidationError
from .config import SweepConfig, echoed_int

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
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return repr(float(x))


def write_sweep_csv(report: SweepReport, path: str) -> None:
    """One row per (theta, trial); per-theta prediction columns repeated."""
    lines = [",".join(CSV_COLUMNS)]
    cfg = report.config
    for rec in report.records:
        summ = report.summaries[rec.theta_index]
        lines.append(",".join([
            str(cfg.group), str(cfg.n), cfg.noise_model, _fmt(rec.theta),
            str(rec.trial), rec.seed, _fmt(rec.empirical_loss),
            _fmt(summ.prediction_mean), _fmt(summ.prediction_stderr),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(report, payload: dict, path: str, include_timing: bool) -> None:
    """Write ``payload`` and the report's meta entry as sorted, indented JSON;
    a non-finite float raises ValueError before the file is opened, as in the
    CSV writers.  The wall time is written only when asked for."""
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


# a report row field of each declared type read back from JSON; an integer
# goes through echoed_int, so 120.0 is 120 but 120.7 is refused
_FIELD_READERS = {"int": echoed_int,
                  "float": lambda row, key: float(row[key]),
                  "str": lambda row, key: str(row[key])}


def _read_row(cls, row: dict):
    return cls(**{f.name: _FIELD_READERS[f.type](row, f.name) for f in fields(cls)})


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
        records = tuple(_read_row(TrialRecord, r) for r in data["records"])
        summaries = tuple(_read_row(ThetaSummary, s) for s in data["summaries"])
        _check_sweep_report(config, records, summaries)
        meta = data.get("meta", {})
        version = str(meta.get("version", __version__))
        wall_time_s = meta.get("wall_time_s")
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
    lines = [",".join(UNIVERSALITY_CSV_COLUMNS)]
    for p in report.pairs:
        row = _pair_row(p)
        lines.append(",".join(str(row[c]) if isinstance(row[c], int) else _fmt(row[c])
                              for c in UNIVERSALITY_CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_universality_json(report: UniversalityReport, path: str,
                            include_timing: bool = False) -> None:
    _write_json(report, {"config": report.config_echo,
                         "pairs": [_pair_row(p) for p in report.pairs]},
                path, include_timing)
