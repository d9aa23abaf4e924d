"""Experiment configuration objects and the flat key-value config file format.

A config file is plain text, one ``key = value`` per line, ``#`` starts a
comment line, and the keys must exactly match the config fields; unknown or
duplicate keys are errors so typos cannot silently change an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ensembles import EnsembleSpec
from ..errors import ValidationError
from ..groups import Group, default_loss, parse_group, rounding_rule
from ..predictions import DEFAULT_SAMPLES, MIN_SAMPLES

NOISE_MODELS = ("truth-or-haar", "gaussian-additive")
# universality statistics phi, applied to n * Re(u_i conj(u_j))
PHI_FUNCS = {"tanh": np.tanh, "cos": np.cos, "sin": np.sin}
SIGNAL_KINDS = ("haar", "uniform")


def _parse_kv_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise ValidationError(f"{path}:{lineno}: empty key")
            if key in pairs:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = value
    return pairs


def _take(pairs: dict[str, str], known: dict, path: str) -> dict[str, str]:
    unknown = sorted(set(pairs) - set(known))
    if unknown:
        raise ValidationError(f"{path}: unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k, required in known.items() if required and k not in pairs)
    if missing:
        raise ValidationError(f"{path}: missing required keys: {', '.join(missing)}")
    return pairs


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"key {key!r}: expected an integer, got {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"key {key!r}: expected a number, got {text!r}") from None


def echoed_int(data: dict, key: str) -> int:
    """An integer field of an echoed config or a loaded report: JSON may spell
    120 as 120.0, but 120.7 is refused, not truncated."""
    value = data[key]
    if type(value) not in (int, float) or value != int(value):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _parse_grid(text: str) -> tuple[float, ...]:
    items = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(_parse_float(p, "theta_grid") for p in items)


@dataclass(frozen=True)
class SweepConfig:
    """Full definition of a theta-sweep experiment."""

    group: Group
    n: int
    theta_grid: tuple[float, ...]
    trials: int
    noise_model: str
    rounding: str
    loss: str
    mc_samples: int
    master_seed: int
    out_dir: str = "."

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.noise_model not in NOISE_MODELS:
            raise ValidationError(f"noise_model must be one of {NOISE_MODELS}, "
                                  f"got {self.noise_model!r}")
        if self.mc_samples < MIN_SAMPLES:
            raise ValidationError(f"mc_samples must be >= {MIN_SAMPLES}")
        grid = tuple(float(t) for t in self.theta_grid)
        if not grid:
            raise ValidationError("theta_grid must hold at least one theta value")
        object.__setattr__(self, "theta_grid", grid)
        for theta in grid:
            if not np.isfinite(theta) or theta <= 1.0:
                raise ValidationError(
                    f"theta values must exceed 1 (the prediction is part of the sweep), got {theta}")
            if self.noise_model == "truth-or-haar" and theta / np.sqrt(self.n) > 1.0:
                raise ValidationError(
                    f"truth-or-haar requires p = theta/sqrt(n) <= 1; theta = {theta}, n = {self.n}")
        if self.rounding != rounding_rule(self.group):
            raise ValidationError(f"group {self.group} rounds by {rounding_rule(self.group)!r}, "
                                  f"got {self.rounding!r}")
        if self.loss != default_loss(self.group):
            raise ValidationError(f"group {self.group} uses loss {default_loss(self.group)!r} "
                                  f"in sweeps, got {self.loss!r}")

    def echo(self) -> dict:
        """Config as plain data for report embedding.

        The output directory is deliberately excluded: it locates artifacts but
        is not part of the experiment identity, and reports must be
        byte-identical when the same experiment writes elsewhere.
        """
        return {
            "group": str(self.group),
            "n": self.n,
            "theta_grid": list(self.theta_grid),
            "trials": self.trials,
            "noise_model": self.noise_model,
            "round": self.rounding,
            "loss": self.loss,
            "mc_samples": self.mc_samples,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_echo(cls, data: dict, out_dir: str = ".") -> "SweepConfig":
        return cls(group=parse_group(data["group"]), n=echoed_int(data, "n"),
                   theta_grid=tuple(float(t) for t in data["theta_grid"]),
                   trials=echoed_int(data, "trials"), noise_model=data["noise_model"],
                   rounding=data["round"], loss=data["loss"],
                   mc_samples=echoed_int(data, "mc_samples"),
                   master_seed=echoed_int(data, "master_seed"), out_dir=out_dir)


SWEEP_KEYS = {
    "group": True, "n": True, "theta_grid": True, "trials": True,
    "noise_model": True, "mc_samples": False,
    "master_seed": True, "out_dir": False,
}


def parse_sweep_config(path: str) -> SweepConfig:
    pairs = _take(_parse_kv_file(path), SWEEP_KEYS, path)
    group = parse_group(pairs["group"])
    return SweepConfig(
        group=group,
        n=_parse_int(pairs["n"], "n"),
        theta_grid=_parse_grid(pairs["theta_grid"]),
        trials=_parse_int(pairs["trials"], "trials"),
        noise_model=pairs["noise_model"],
        rounding=rounding_rule(group),
        loss=default_loss(group),
        mc_samples=_parse_int(pairs.get("mc_samples", str(DEFAULT_SAMPLES)), "mc_samples"),
        master_seed=_parse_int(pairs["master_seed"], "master_seed"),
        out_dir=pairs.get("out_dir", "."),
    )


def parse_ensemble(text: str, n: int) -> EnsembleSpec:
    """Parse an ensemble description: 'goe', 'gue', or 'wigner:<law>[:C]'."""
    s = text.strip().lower()
    if s == "goe":
        return EnsembleSpec(kind="goe", n=n, field="R")
    if s == "gue":
        return EnsembleSpec(kind="gue", n=n, field="C")
    parts = s.split(":")
    if parts[0] == "wigner" and len(parts) in (2, 3):
        field = "R"
        if len(parts) == 3:
            if parts[2] not in ("r", "c"):
                raise ValidationError(f"ensemble field must be R or C, got {parts[2]!r}")
            field = parts[2].upper()
        return EnsembleSpec(kind="generalized-wigner", n=n, entry_law=parts[1], field=field)
    raise ValidationError(f"unrecognized ensemble {text!r} "
                          "(expected 'goe', 'gue', or 'wigner:<law>[:C]')")


def ensemble_text(spec: EnsembleSpec) -> str:
    """Inverse of ``parse_ensemble``; a variance profile has no text form and
    is left out."""
    if spec.kind == "generalized-wigner":
        tag = f"wigner:{spec.entry_law}"
        return tag + ":c" if spec.field == "C" else tag
    return spec.kind


@dataclass(frozen=True)
class UniversalityConfig:
    """Definition of an A/B comparison between two moment-matched ensembles."""

    ensemble_a: str
    ensemble_b: str
    n: int
    theta: float
    phi: str
    n_pairs: int
    trials: int
    master_seed: int
    signal: str = "haar"
    out_dir: str = "."

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if self.trials < 2:
            raise ValidationError("need at least 2 trials for standard errors")
        if self.n_pairs < 1:
            raise ValidationError("n_pairs must be >= 1")
        if self.phi not in PHI_FUNCS:
            raise ValidationError(f"phi must be one of {tuple(PHI_FUNCS)}, got {self.phi!r}")
        if self.signal not in SIGNAL_KINDS:
            raise ValidationError(f"signal must be one of {SIGNAL_KINDS}, got {self.signal!r}")
        if not np.isfinite(self.theta) or self.theta <= 0:
            raise ValidationError(f"theta must be positive, got {self.theta}")
        # fail early on unparseable ensembles
        parse_ensemble(self.ensemble_a, self.n)
        parse_ensemble(self.ensemble_b, self.n)

    def echo(self) -> dict:
        return {
            "ensemble_a": self.ensemble_a,
            "ensemble_b": self.ensemble_b,
            "n": self.n,
            "theta": self.theta,
            "phi": self.phi,
            "n_pairs": self.n_pairs,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "signal": self.signal,
        }


UNIVERSALITY_KEYS = {
    "ensemble_a": True, "ensemble_b": True, "n": True, "theta": True,
    "phi": False, "n_pairs": False, "trials": True, "master_seed": True,
    "signal": False, "out_dir": False,
}


def parse_universality_config(path: str) -> UniversalityConfig:
    pairs = _take(_parse_kv_file(path), UNIVERSALITY_KEYS, path)
    return UniversalityConfig(
        ensemble_a=pairs["ensemble_a"],
        ensemble_b=pairs["ensemble_b"],
        n=_parse_int(pairs["n"], "n"),
        theta=_parse_float(pairs["theta"], "theta"),
        phi=pairs.get("phi", "tanh"),
        n_pairs=_parse_int(pairs.get("n_pairs", "10"), "n_pairs"),
        trials=_parse_int(pairs["trials"], "trials"),
        master_seed=_parse_int(pairs["master_seed"], "master_seed"),
        signal=pairs.get("signal", "haar"),
        out_dir=pairs.get("out_dir", "."),
    )
