"""Run configuration: bounds, precision, cache location, output format."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass


@dataclass
class RunConfig:
    precision_bits: int = 128
    unit_search_height: float = 1e9
    ideal_bound_scale: float = 1.0
    principality_budget: int = 6_000_000
    cache_path: str | None = None
    output_format: str = "text"  # csv | json | text
    seed: int = 0
    strict: bool = False

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be >= 64 for statistics runs")
        if self.ideal_bound_scale <= 0 or self.principality_budget <= 0:
            raise ValueError("bounds must be positive")

    def digest(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if k != "cache_path"}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_INT_KEYS = ("precision_bits", "principality_budget", "seed")
_FLOAT_KEYS = ("unit_search_height", "ideal_bound_scale")
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_FORMATS = ("csv", "json", "text")


def _typed_value(key: str, v: str):
    if key in _INT_KEYS:
        return int(v)
    if key in _FLOAT_KEYS:
        x = float(v)
        if not math.isfinite(x):
            raise ValueError(f"expected a finite number, got {v!r}")
        return x
    if key == "strict":
        if v.lower() not in _BOOLS:
            raise ValueError(f"expected one of 1/true/yes/0/false/no, got {v!r}")
        return _BOOLS[v.lower()]
    if key == "output_format":
        if v not in _FORMATS:
            raise ValueError(f"expected one of {'/'.join(_FORMATS)}, got {v!r}")
        return v
    if key == "cache_path":
        return v
    raise ValueError("unknown key")


def load_config_file(path: str) -> dict:
    """Plain-text key=value config, typed as RunConfig fields; '#' comments
    and blank lines ignored. A line without '=', an unknown key or a value
    of the wrong kind raises ValueError naming the file, the line and the key."""
    out: dict = {}
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k, eq, v = line.partition("=")
            k = k.strip()
            if not eq:
                raise ValueError(f"config file {path} line {n}: expected key=value, got {line!r}")
            try:
                out[k] = _typed_value(k, v.strip())
            except ValueError as e:
                raise ValueError(f"config file {path} line {n}: key {k!r}: {e}") from None
    return out


def config_from_sources(file_path: str | None = None, **overrides) -> RunConfig:
    vals = load_config_file(file_path) if file_path else {}
    for k, v in overrides.items():
        if v is not None:
            vals[k] = v
    return RunConfig(**vals)
