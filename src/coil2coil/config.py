"""Flat key=value run configuration with [section] headers.

Every key has a documented default; unknown sections or keys are rejected
with the offending line number.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict

from .network import NetworkConfig
from .simulate import NoiseSpec
from .train import TrainConfig

__all__ = ["DEFAULTS", "parse_config", "load_config", "ConfigError"]

# section -> key -> default (type of the default fixes the parsed type); [noise] and
# [network] are the NoiseSpec and NetworkConfig fields, [training] the TrainConfig
# fields but seed, plus the dataset sizes
DEFAULTS = {
    "phantom": {"grid_size": 32},
    "coils": {"channels": 8},
    "noise": asdict(NoiseSpec()),
    "network": asdict(NetworkConfig()),
    "training": {
        **{k: v for k, v in asdict(TrainConfig()).items() if k != "seed"},
        "slices": 200,
        "val_slices": 20,
    },
}


class ConfigError(ValueError):
    pass


def _convert(raw, default, where):
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{where}: expected boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            value = float(raw)
            if not math.isfinite(value):  # float() parses nan and inf; no setting takes them
                raise ValueError(raw)
            return value
    except ValueError:
        raise ConfigError(f"{where}: expected {type(default).__name__}, got {raw!r}") from None
    return raw.strip()


def parse_config(text):
    """Parse config text into a nested dict over DEFAULTS."""
    cfg = copy.deepcopy(DEFAULTS)
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in cfg:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if section is None:
            raise ConfigError(f"line {lineno}: key {key!r} before any [section]")
        if key not in cfg[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        cfg[section][key] = _convert(raw, DEFAULTS[section][key], f"line {lineno}")
    return cfg


def load_config(path=None):
    if path is None:
        return copy.deepcopy(DEFAULTS)
    with open(path) as f:
        return parse_config(f.read())
