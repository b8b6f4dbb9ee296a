"""Run configuration shared by the library and the CLI."""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import UsageError


#: Euler's constant, to double precision.
EULER_GAMMA = 0.5772156649015329

#: Table file format tag; bump when the on-disk layout or the meaning of any
#: hashed field changes.
TABLE_FORMAT = "zl-table-v5"


@dataclass(frozen=True)
class RunConfig:
    """Numerical knobs. Everything that changes computed values is hashed.

    The defaults are tuned so that chain residuals land near 1e-9, two orders
    below the 1e-6 acceptance tolerances.
    """

    # quadrature: absolute tolerance per unit length of integration range
    quad_tol: float = 1e-10
    # root solves: final bracket width (absolute, in t units)
    root_tol: float = 1e-11
    # Riemann-Siegel correction depth: number of correction terms (1..4)
    rs_terms: int = 4
    # below this height Z is evaluated through the alternating-series route
    rs_switch: float = 100.0
    # cumulative-table knot spacing in t
    knot_spacing: float = 0.5
    # domain floor for the normalizer inversion
    t_min: float = 4.0
    # forward-map domain floor (A(t) must clear V(t_min) with margin)
    t_start: float = 200.0
    # hard ceiling for table extension (resource guard)
    t_table_max: float = 2.0e5
    # tower defaults
    l_floor: int = 100
    k_max: int = 4
    # cache file override (None -> env var ZETALADDER_CACHE_DIR -> ./.zl-cache)
    cache_dir: str | None = None

    def __post_init__(self):
        # one row of the correction table (and of its error bound) per term
        if not 1 <= self.rs_terms <= 4:
            raise UsageError(f"rs_terms={self.rs_terms} must be in 1..4")
        for name in ("quad_tol", "root_tol", "knot_spacing", "t_table_max"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise UsageError(f"{name}={val} must be finite and > 0")
        for name in ("rs_switch", "t_min", "t_start"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise UsageError(f"{name}={val} must be finite")

    def config_hash(self) -> str:
        """Short checksum over every field that affects cached table values."""
        payload = "|".join([
            TABLE_FORMAT,
            f"quad_tol={self.quad_tol!r}",
            # the normalizer family has one member (ladder.normalizer); the
            # literal keeps the hash, and so every saved table, unchanged
            "normalizer=HL_STANDARD",
            f"rs_terms={self.rs_terms}",
            f"rs_switch={self.rs_switch!r}",
            f"knot_spacing={self.knot_spacing!r}",
        ])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def resolve_cache_dir(self) -> str:
        if self.cache_dir is not None:
            return self.cache_dir
        env = os.environ.get("ZETALADDER_CACHE_DIR")
        if env:
            return env
        return os.path.join(os.getcwd(), ".zl-cache")

    def with_overrides(self, **kwargs: Any) -> "RunConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = RunConfig()
