"""Run configuration: the self-training knobs plus the evaluation knobs,
loadable from a ``key=value`` file with ``#`` comments. Environment variables
prefixed ``CMPDP_`` (e.g. CMPDP_LR=0.01) override file values; the CLI's flags
override both. The layers merge into one value set, which is validated once,
so a flag can replace a bad lower-precedence value."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .net import MAX_PARAMS, param_count

ENV_PREFIX = "CMPDP_"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Every run setting; defaults follow the evaluated setup."""

    total_epochs: int = 300
    batch_size: int = 32
    lr: float = 1e-3
    num_rollouts: int = 3
    mixed: bool = False
    graphs_per_refresh: int = 32
    pairs_per_graph: int = 8
    epochs_per_refresh: int = 10
    seed: int = 0
    rounds: int = 3
    width: int = 32
    head_layers: int = 4
    consistency_pairs: int = 32
    exact_budget: int = 2_000_000
    local_search_seconds: float = 1.0
    local_search_moves: int = 2000

    def validate(self) -> None:
        for key in ("lr", "local_search_seconds"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        for key in (
            "batch_size",
            "num_rollouts",
            "graphs_per_refresh",
            "pairs_per_graph",
            "epochs_per_refresh",
            "rounds",
            "width",
            "consistency_pairs",
            "exact_budget",
        ):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be positive")
        for key in ("total_epochs", "local_search_seconds", "local_search_moves"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative")
        if self.head_layers < 2:
            raise ValueError("head_layers must be at least 2")
        count = param_count(self.rounds, self.width, self.head_layers)
        if count > MAX_PARAMS:
            raise ConfigError(f"rounds={self.rounds}, width={self.width}, head_layers={self.head_layers}"
                              f" give a model of {count:,} parameters, above the limit of {MAX_PARAMS:,}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


def load_config(
    path: str | Path | None = None,
    env: Mapping[str, str] | None = None,
    flags: Mapping[str, object] | None = None,
) -> RunConfig:
    """Defaults, overridden by the file (if given), overridden by CMPDP_*
    environment variables, overridden by ``flags`` (already typed values, as
    the CLI parses them). Unknown keys and bad values raise ConfigError
    naming the key."""
    values: dict[str, str] = {}
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    env = os.environ if env is None else env
    for key, value in env.items():
        if key.startswith(ENV_PREFIX):
            values[key[len(ENV_PREFIX) :].lower()] = value
    return config_from_values(values, flags)


def config_from_values(values: Mapping[str, str], flags: Mapping[str, object] | None = None) -> RunConfig:
    """RunConfig from text ``values`` and typed ``flags``; a flag replaces the
    value of its key unparsed. Validated once, after both are applied."""
    flags = flags or {}
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    for key in (*values, *flags):
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    for key, value in values.items():
        if key not in flags:
            setattr(cfg, key, _convert(key, value, type(getattr(cfg, key))))
    for key, value in flags.items():
        setattr(cfg, key, value)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _convert(key: str, value: str, kind: type):
    if kind is bool:
        low = value.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None
