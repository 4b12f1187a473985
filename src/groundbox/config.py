"""Hyperparameter bundle and flat key=value config-file parsing."""

import dataclasses
import enum
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


class LossMode(enum.Enum):
    DVSA = "dvsa"
    LOSS_WEIGHTING = "loss-weight"
    OBJECT_INTERACTION = "obj-interact"
    FULL_MODEL = "full"


MODE_NAMES = {m.value: m for m in LossMode}


@dataclass
class GroundingConfig:
    # model
    d: int = 128
    D_in: int = 2048
    V: int = 67
    attn_layers: int = 2
    attn_heads: int = 6
    attn_hidden: int = 256
    dropout: float = 0.2
    # objective
    mode: LossMode = LossMode.FULL_MODEL
    lam: float = 0.9
    delta: float = 0.1
    T: int = 5
    T_prime: int = 5
    negatives: int = 1
    # optimization
    lr: float = 0.05
    momentum: float = 0.9
    epochs: int = 30
    batch: int = 16
    seed: int = 0
    # synthetic data
    N: int = 20
    sigma: float = 0.1
    frames_per_segment: int = 10
    presence: float = 0.6
    min_objects: int = 1
    max_objects: int = 3
    train_segments: int = 500
    val_segments: int = 100
    test_segments: int = 100

    def __post_init__(self):
        if not isinstance(self.mode, LossMode):
            # a JSON list or object is unhashable: test the type before the lookup
            if not isinstance(self.mode, str) or self.mode not in MODE_NAMES:
                raise ConfigError(
                    f"unknown mode {self.mode!r}; choose from {sorted(MODE_NAMES)}")
            self.mode = MODE_NAMES[self.mode]

    def validate(self):
        for field, kind in _FIELD_TYPES.items():
            if kind is LossMode:
                continue
            value = getattr(self, field)
            # an int field takes an int, a float field an int or a float;
            # bool is an int subclass and counts as neither
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                wanted = "an int" if kind is int else "a number"
                raise ConfigError(f"{field} must be {wanted}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{field} must be finite, got {value}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.T_prime > self.T or self.T_prime < 1:
            raise ConfigError(f"need 1 <= T_prime <= T, got T'={self.T_prime}, T={self.T}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.max_objects > self.V:
            raise ConfigError(f"max_objects {self.max_objects} exceeds vocabulary size {self.V}")
        if self.max_objects > self.N:
            raise ConfigError(f"max_objects {self.max_objects} exceeds proposals per frame {self.N}")
        if self.min_objects < 1 or self.min_objects > self.max_objects:
            raise ConfigError("need 1 <= min_objects <= max_objects")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be nonnegative, got {self.sigma}")
        for field in ("d", "D_in", "V", "T", "N", "epochs", "batch", "negatives",
                      "frames_per_segment", "attn_layers", "attn_heads", "attn_hidden"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1, got {getattr(self, field)}")
        for field in ("seed", "train_segments", "val_segments", "test_segments"):
            if getattr(self, field) < 0:
                raise ConfigError(f"{field} must be >= 0, got {getattr(self, field)}")
        if self.attn_heads > self.attn_hidden:
            raise ConfigError(f"attn_heads {self.attn_heads} exceeds attn_hidden "
                              f"{self.attn_hidden}: each head needs a column")
        if not 0.0 < self.presence <= 1.0:
            raise ConfigError(f"presence must be in (0, 1], got {self.presence}")
        return self

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["mode"] = self.mode.value
        return out

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"config must be an object of fields, got {d!r}")
        unknown = sorted(set(d) - set(_FIELD_TYPES))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        return cls(**d).validate()


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(GroundingConfig)}


def _coerce(key, raw):
    if key == "mode":
        return raw
    if _FIELD_TYPES[key] is int:
        return int(raw)
    return float(raw)


def parse_config_file(path):
    """Read a flat key=value file (# comments, blank lines) into a dict."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values
