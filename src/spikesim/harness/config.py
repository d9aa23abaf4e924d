"""Experiment configuration objects and the flat key-value config file format.

A config file is plain text, one ``key = value`` per line, ``#`` starts a
comment line.  Each config dataclass is its own file schema: a key names a
field, is read by the field's declared type (as is a config echoed in JSON)
and is required unless the field has a default.  Unknown or duplicate keys are
errors so typos cannot silently change an experiment.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

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


def echoed_int(value, key: str) -> int:
    """An integer field of an echoed config or a loaded report: JSON may spell
    120 as 120.0, but 120.7 is refused, not truncated."""
    if type(value) not in (int, float) or value != int(value):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def echoed(value, key: str, kind: type):
    """A float, str or list of an echoed config or a loaded report, read by its
    JSON type: a float is a JSON number, neither a bool nor a numeric string."""
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise ValidationError(f"{key} must be a {kind.__name__}, got {value!r}")
    return kind(value)


def _parse_grid(text: str, key: str) -> tuple[float, ...]:
    items = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(_parse_float(p, key) for p in items)


# each declared field type: (its config-file text reader, its JSON reader);
# a JSON value must have the field's JSON type, so neither "1.5" nor true is a
# float, 12 is not a str and 120.7 is not an int
_READERS = {
    "int": (_parse_int, echoed_int),
    "float": (_parse_float, lambda value, key: echoed(value, key, float)),
    "str": (lambda text, key: text, lambda value, key: echoed(value, key, str)),
    "Group": (lambda text, key: parse_group(text),
              lambda value, key: parse_group(echoed(value, key, str))),
    "tuple[float, ...]": (_parse_grid, lambda value, key: tuple(
        echoed(t, f"{key} item", float) for t in echoed(value, key, list))),
}


def _read_config(path: str, cls, fixed: tuple[str, ...] = ()) -> dict:
    """The values the config file at ``path`` sets, one key per field of
    ``cls`` but the ``fixed`` ones, each read by its declared type in field
    order; a key is required unless its field has a default."""
    settable = [f for f in fields(cls) if f.name not in fixed]
    pairs = _parse_kv_file(path)
    unknown = sorted(set(pairs) - {f.name for f in settable})
    if unknown:
        raise ValidationError(f"{path}: unknown config keys: {', '.join(unknown)}")
    missing = sorted(f.name for f in settable if f.default is MISSING and f.name not in pairs)
    if missing:
        raise ValidationError(f"{path}: missing required keys: {', '.join(missing)}")
    return {f.name: _READERS[f.type][0](pairs[f.name], f.name)
            for f in settable if f.name in pairs}


def from_json(cls, data: dict, keys: dict[str, str] | None = None, **given):
    """An instance of ``cls`` holding ``given`` and, in field order, each other
    field read by its declared type from ``data`` under its name, or under
    ``keys[name]`` where the JSON names it otherwise."""
    keys = keys or {}
    values = {}
    for f in fields(cls):
        if f.name not in given:
            key = keys.get(f.name, f.name)
            values[f.name] = _READERS[f.type][1](data[key], key)
    return cls(**values, **given)


def _check_ints(config) -> None:
    """Read every int field of ``config`` as a loaded report would, so a value
    the report could not be read back with (1.5, True) is refused here."""
    for f in fields(config):
        if f.type == "int":
            object.__setattr__(config, f.name, echoed_int(getattr(config, f.name), f.name))


def _echo(config) -> dict:
    """A config as plain data for report embedding.

    The output directory is deliberately excluded: it locates artifacts but
    is not part of the experiment identity, and reports must be
    byte-identical when the same experiment writes elsewhere.
    """
    echo = asdict(config)
    del echo["out_dir"]
    return echo


# the one sweep field an echo names otherwise
_SWEEP_ECHO_KEYS = {"rounding": "round"}


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    """Full definition of a theta-sweep experiment."""

    group: Group
    n: int
    theta_grid: tuple[float, ...]
    trials: int
    noise_model: str
    rounding: str
    loss: str
    mc_samples: int = DEFAULT_SAMPLES
    master_seed: int
    out_dir: str = "."

    def __post_init__(self):
        _check_ints(self)
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
        """Config as plain data for report embedding (see ``_echo``): the
        group as text, the grid as a list, and ``rounding`` under ``round``."""
        echo = {_SWEEP_ECHO_KEYS.get(k, k): v for k, v in _echo(self).items()}
        echo.update(group=str(self.group), theta_grid=list(self.theta_grid))
        return echo

    @classmethod
    def from_echo(cls, data: dict, out_dir: str = ".") -> "SweepConfig":
        """Inverse of ``echo``: every field read by its declared type."""
        return from_json(cls, data, _SWEEP_ECHO_KEYS, out_dir=out_dir)


def parse_sweep_config(path: str) -> SweepConfig:
    # the group fixes the remaining fields, rounding and loss
    values = _read_config(path, SweepConfig, fixed=("rounding", "loss"))
    group = values["group"]
    return SweepConfig(**values, rounding=rounding_rule(group), loss=default_loss(group))


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
    """Inverse of ``parse_ensemble``.  A variance profile has no text form: a
    spec with one is marked ``+profile``, which ``parse_ensemble`` refuses."""
    if spec.kind != "generalized-wigner":
        return spec.kind
    tag = f"wigner:{spec.entry_law}" + (":c" if spec.field == "C" else "")
    return tag if spec.variance_profile is None else tag + "+profile"


@dataclass(frozen=True, kw_only=True)
class UniversalityConfig:
    """Definition of an A/B comparison between two moment-matched ensembles."""

    ensemble_a: str
    ensemble_b: str
    n: int
    theta: float
    phi: str = "tanh"
    n_pairs: int = 10
    trials: int
    master_seed: int
    signal: str = "haar"
    out_dir: str = "."

    def __post_init__(self):
        _check_ints(self)
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
        return _echo(self)


def parse_universality_config(path: str) -> UniversalityConfig:
    return UniversalityConfig(**_read_config(path, UniversalityConfig))
