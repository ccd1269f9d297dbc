"""Experiment configuration: a single JSON document with CLI overrides.

Configs are committed fixtures, so parsing is strict (unknown keys are
rejected, every message names the offending key) and parse -> serialize
-> parse is the identity.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

from .kernels import D_MAX, bump_kernel
from .signals import Signal
from .spectral_core import TimeGrid


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the key path."""


def _require_int(key, value):
    """value as an int; a float or a bool is refused even when integral."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def _require_number(key, value):
    """value unchanged if it is a finite real number; a bool, a string or a NaN is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return value


_DEFAULTS = {
    "T": 0.5,
    "theta": 0.1,
    "r": 2.0,
    "method": "taylor",
    "d_range": [0, 12],
    "d_step": 1,
    "kernel": {"shape": "bump"},
    "signal": {"kind": "poisson", "params": {"a": 1.5}},
    "noise": {"kind": "chirp_noise", "params": {"band": [6.0, 12.0], "amplitude": 1.0}},
    "tgrid": {"t_min": -2.0, "t_max": 2.0, "n_points": 41},
    "nu_range": [0.0, 0.01, 0.1],
    "p": 2,
    "eps_target": 1e-4,
    "output_dir": "out",
}


@dataclass(frozen=True)
class ExperimentConfig:
    T: float = 0.5
    theta: float = 0.1
    r: float = 2.0
    method: str = "taylor"
    d_range: tuple = (0, 12)
    d_step: int = 1
    kernel: dict = field(default_factory=lambda: dict(_DEFAULTS["kernel"]))
    signal: dict = field(default_factory=lambda: dict(_DEFAULTS["signal"]))
    noise: dict = field(default_factory=lambda: dict(_DEFAULTS["noise"]))
    tgrid: dict = field(default_factory=lambda: dict(_DEFAULTS["tgrid"]))
    nu_range: tuple = (0.0, 0.01, 0.1)
    p: int = 2
    eps_target: float = 1e-4
    output_dir: str = "out"

    def __post_init__(self):
        for key in ("T", "theta", "r", "eps_target"):
            _require_number(key, getattr(self, key))
        for key in ("kernel", "signal", "noise", "tgrid"):
            if not isinstance(getattr(self, key), dict):
                raise ConfigError(f"{key}: expected an object, got {getattr(self, key)!r}")
        for key, value in self.kernel.items():
            if key != "shape":
                raise ConfigError(f"kernel.{key}: unknown key; the kernel is the bump on "
                                  "[-T, theta] of the top-level T and theta")
            if value != "bump":
                raise ConfigError(f"kernel.shape: expected 'bump', got {value!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir: expected a string, got {self.output_dir!r}")
        if not isinstance(self.d_range, (list, tuple)):
            raise ConfigError(f"d_range: expected [start, stop], got {self.d_range!r}")
        if self.T <= 0:
            raise ConfigError("T: prediction horizon must be positive")
        if self.theta < 0:
            raise ConfigError("theta: causal tail must be nonnegative")
        if self.r <= 0:
            raise ConfigError("r: decay rate must be positive")
        if self.method not in ("taylor", "projection"):
            raise ConfigError(f"method: expected taylor or projection, got {self.method!r}")
        dr = tuple(_require_int("d_range", v) for v in self.d_range)
        if len(dr) != 2 or dr[0] < 0 or dr[1] < dr[0]:
            raise ConfigError("d_range: expected [start, stop] with 0 <= start <= stop")
        if dr[1] > D_MAX:
            raise ConfigError(f"d_range: stop {dr[1]} exceeds the largest supported degree {D_MAX}")
        object.__setattr__(self, "d_range", dr)
        object.__setattr__(self, "d_step", _require_int("d_step", self.d_step))
        if self.d_step < 1:
            raise ConfigError("d_step: must be a positive integer")
        if "n_points" in self.tgrid:
            _require_int("tgrid.n_points", self.tgrid["n_points"])
        if not isinstance(self.nu_range, (list, tuple)):
            raise ConfigError(f"nu_range: expected a list of numbers, got {self.nu_range!r}")
        if len(self.nu_range) == 0:
            raise ConfigError("nu_range: must be nonempty")
        for nu in self.nu_range:
            _require_number("nu_range", nu)
        if any(nu < 0 for nu in self.nu_range):
            raise ConfigError("nu_range: intensities must be nonnegative")
        object.__setattr__(self, "nu_range", tuple(float(v) for v in self.nu_range))
        if self.p not in (1, 2):
            raise ConfigError(f"p: expected 1 or 2, got {self.p!r}")
        if self.eps_target <= 0:
            raise ConfigError("eps_target: must be positive")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        merged = {**_DEFAULTS, **data}
        try:
            return cls(**{k: merged[k] for k in _DEFAULTS})
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        data = asdict(self)
        data["d_range"] = list(self.d_range)
        data["nu_range"] = list(self.nu_range)
        return data

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- realized objects ----------------------------------------------------

    @property
    def ds(self):
        return list(range(self.d_range[0], self.d_range[1] + 1, self.d_step))

    def build_kernel(self):
        return bump_kernel(self.T, self.theta)

    def build_signal(self):
        try:
            return Signal.from_spec(self.signal)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"signal: {exc}") from exc

    def build_noise(self):
        try:
            return Signal.from_spec(self.noise)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"noise: {exc}") from exc

    def build_tgrid(self):
        try:
            return TimeGrid(self.tgrid["t_min"], self.tgrid["t_max"], self.tgrid["n_points"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"tgrid: {exc}") from exc
