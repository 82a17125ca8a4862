"""Run configuration: flat ``key = value`` files with strict key checking."""

import os
from dataclasses import dataclass

from .kvcfg import from_kv, parse_kv_file

_SUPERVISION = ("mm2b", "fullbox")
_PHASES = ("weak", "refine")


@dataclass
class RunConfig:
    phase: str = "weak"
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    scale1: int = 64
    scale2: int = 48
    beta: float = 1.0
    gamma: float = 1.0
    lambda1: float = 0.8
    lambda2: float = 0.2
    smooth_eps: float = 1.0
    clamp_eps: float = 1e-7
    dataset_dir: str = ""
    checkpoint_in: str = ""
    checkpoint_out: str = ""
    refine_checkpoint: str = ""
    seed: int = 0
    refine_label_fraction: float = 0.1
    holdout_fraction: float = 0.2
    feat_channels: int = 16
    use_sc: bool = True
    use_cnn_gate: bool = True
    supervision: str = "mm2b"
    augment: bool = True

    def validate(self):
        if self.phase not in _PHASES:
            raise ValueError(f"phase must be one of {_PHASES}, got {self.phase!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.scale1 < 8 or self.scale2 < 8:
            raise ValueError(f"scales must be >= 8, got ({self.scale1}, {self.scale2})")
        if not (0.0 < self.refine_label_fraction <= 1.0):
            raise ValueError(f"refine_label_fraction must lie in (0, 1], got {self.refine_label_fraction}")
        if not (0.0 <= self.holdout_fraction < 1.0):
            raise ValueError(f"holdout_fraction must lie in [0, 1), got {self.holdout_fraction}")
        if self.supervision not in _SUPERVISION:
            raise ValueError(f"supervision must be one of {_SUPERVISION}, got {self.supervision!r}")
        for name in ("beta", "gamma", "lambda1", "lambda2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("smooth_eps", "clamp_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.feat_channels < 2 or self.feat_channels % 2:
            raise ValueError(f"feat_channels must be even and >= 2, got {self.feat_channels}")
        return self


_PATH_KEYS = ("dataset_dir", "checkpoint_in", "checkpoint_out", "refine_checkpoint")
_INPUT_PATH_KEYS = ("dataset_dir", "checkpoint_in", "refine_checkpoint")


def load_run_config(path, overrides=None) -> RunConfig:
    """Parse, apply overrides, resolve paths relative to the config file,
    reject unknown keys and non-finite numbers, and verify that referenced
    inputs exist."""
    kv = parse_kv_file(path)
    if overrides:
        kv.update({k: str(v) for k, v in overrides.items()})
    cfg = from_kv(RunConfig, kv, "config").validate()
    base = os.path.dirname(os.path.abspath(path))
    for key in _PATH_KEYS:
        value = getattr(cfg, key)
        if value:
            setattr(cfg, key, os.path.normpath(os.path.join(base, value)))
    for key in _INPUT_PATH_KEYS:
        value = getattr(cfg, key)
        if value and not os.path.exists(value):
            raise FileNotFoundError(f"{key} points at a missing path: {value}")
    return cfg
