"""Experiment configuration: a single JSON document with CLI overrides.

Configs are committed fixtures, so parsing is strict (unknown keys are
rejected, every message names the offending key) and parse -> serialize
-> parse is the identity.  Every value is checked at load, each signal
param against its domain (``check_signal_params``, which the signal
factories run too), but nothing is built: the ``build_*`` methods import
the layers they call, so this module imports no numpy.  It also holds
``D_MAX`` and the errors the CLI maps to exit codes 2 and 3.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

#: largest degree d a config may name: the p = 2 norms read L_m, m <= d, from the
#: bump's ratio table ``predictor._BUMP_L2_RATIOS`` (m <= 16), and exact alpha is
#: tested up to it
D_MAX = 16


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the key path."""


class ClassMembershipError(ValueError):
    """The signal lies outside the spectral class the bound requires."""


class BoundRangeError(ValueError):
    """The signal is in the class, but its error bound is past what double precision holds."""


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


_POSITIVE = (lambda value: value > 0, "must be positive")

#: signal kind -> (its factory in ``signals``, {param: domain}), the params in
#: the factory's order; a domain is (test, refusal), None for any finite
#: number.  A signal or noise is {"kind": kind, "params": {param: value}},
#: every value a finite number but ``band``, a list of two
_SIGNAL_KINDS = {
    "poisson": ("poisson_signal", {"a": _POSITIVE}),
    "gaussian": ("gaussian_signal", {"sigma": _POSITIVE}),
    "cosine_modulated_poisson": ("cosine_modulated_poisson", {"a": _POSITIVE, "omega0": None}),
    "chirp_noise": ("chirp_noise", {"band": (lambda band: 0 <= band[0] < band[1], "must satisfy 0 <= lo < hi"),
                                    "amplitude": None}),
    "zero": ("zero_signal", {}),
}


def check_signal_params(kind, *values):
    """Raise ValueError unless each param of the kind, given in the factory's order, lies in its domain."""
    for (name, domain), value in zip(_SIGNAL_KINDS[kind][1].items(), values):
        if domain is not None and not domain[0](value):
            raise ValueError(f"{name} {domain[1]}")


def _signal_args(key, spec):
    """(factory name, param values in its order) of the spec at ``key``; every key, param and domain is checked."""
    if set(spec) != {"kind", "params"}:
        raise ConfigError(f"{key}: expected the keys 'kind' and 'params', got {sorted(spec)}")
    kind, params = spec["kind"], spec["params"]
    if not isinstance(kind, str) or kind not in _SIGNAL_KINDS:
        raise ConfigError(f"{key}.kind: expected one of {sorted(_SIGNAL_KINDS)}, got {kind!r}")
    factory, domains = _SIGNAL_KINDS[kind]
    if not isinstance(params, dict) or set(params) != set(domains):
        raise ConfigError(f"{key}.params: {kind} takes {list(domains)}, got {params!r}")
    for name in domains:
        values = params[name] if name == "band" else [params[name]]
        if name == "band" and not (isinstance(values, list) and len(values) == 2):
            raise ConfigError(f"{key}.params.band: expected [lo, hi], got {values!r}")
        for value in values:
            _require_number(f"{key}.params.{name}", value)
    values = [params[name] for name in domains]
    try:
        check_signal_params(kind, *values)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return factory, values


def _build_signal(key, spec):
    from . import signals
    factory, values = _signal_args(key, spec)
    return getattr(signals, factory)(*values)


@dataclass(frozen=True)
class ExperimentConfig:
    """The canonical configuration, as its field defaults; a config file overrides any of them."""

    T: float = 0.5
    theta: float = 0.1
    r: float = 2.0
    method: str = "taylor"
    d_range: tuple = (0, 12)
    d_step: int = 1
    signal: dict = field(default_factory=lambda: {"kind": "poisson", "params": {"a": 1.5}})
    noise: dict = field(default_factory=lambda: {"kind": "chirp_noise",
                                                 "params": {"band": [6.0, 12.0], "amplitude": 1.0}})
    tgrid: dict = field(default_factory=lambda: {"t_min": -2.0, "t_max": 2.0, "n_points": 41})
    nu_range: tuple = (0.0, 0.01, 0.1)
    p: int = 2
    eps_target: float = 1e-4
    output_dir: str = "out"

    def __post_init__(self):
        for key in ("T", "theta", "r", "eps_target"):
            _require_number(key, getattr(self, key))
        for key in ("signal", "noise", "tgrid"):
            if not isinstance(getattr(self, key), dict):
                raise ConfigError(f"{key}: expected an object, got {getattr(self, key)!r}")
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
        if set(self.tgrid) != {"t_min", "t_max", "n_points"}:
            raise ConfigError(f"tgrid: expected t_min, t_max and n_points, got {sorted(self.tgrid)}")
        t_min = _require_number("tgrid.t_min", self.tgrid["t_min"])
        if not t_min < _require_number("tgrid.t_max", self.tgrid["t_max"]):
            raise ConfigError(f"tgrid.t_max: must exceed t_min {t_min!r}, got {self.tgrid['t_max']!r}")
        if _require_int("tgrid.n_points", self.tgrid["n_points"]) < 2:
            raise ConfigError("tgrid.n_points: need at least two time points")
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
        for key in ("signal", "noise"):
            _signal_args(key, getattr(self, key))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        try:
            return cls(**data)
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
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 at byte {exc.start}") from exc
        return cls.from_json(text)

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        data = asdict(self)
        data["d_range"] = list(self.d_range)
        data["nu_range"] = list(self.nu_range)
        return data

    # -- realized objects ----------------------------------------------------

    @property
    def ds(self):
        return list(range(self.d_range[0], self.d_range[1] + 1, self.d_step))

    def build_kernel(self):
        from .kernels import TargetKernel
        return TargetKernel(self.T, self.theta)

    def build_signal(self):
        return _build_signal("signal", self.signal)

    def build_noise(self):
        return _build_signal("noise", self.noise)

    def build_tgrid(self):
        """The uniform time grid: n_points nodes from t_min to t_max."""
        import numpy as np
        return np.linspace(self.tgrid["t_min"], self.tgrid["t_max"], self.tgrid["n_points"])
