"""Run configuration shared by the library and the CLI."""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar

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
    below the 1e-6 acceptance tolerances.  The fields are what a caller may
    set; ``rs_terms``, ``rs_switch``, ``knot_spacing``, ``t_min`` and
    ``t_start`` are fixed properties of the model, class constants that every
    instance reads.
    """

    # quadrature: absolute tolerance per unit length of integration range
    quad_tol: float = 1e-10
    # root solves: final bracket width (absolute, in t units)
    root_tol: float = 1e-11
    # hard ceiling for table extension (resource guard)
    t_table_max: float = 2.0e5
    # tower defaults
    l_floor: int = 100
    k_max: int = 4
    # cache file override (None -> env var ZETALADDER_CACHE_DIR -> ./.zl-cache)
    cache_dir: str | None = None

    # Riemann-Siegel correction depth: every row of the correction table
    rs_terms: ClassVar[int] = 4
    # below this height Z is evaluated through the alternating-series route
    rs_switch: ClassVar[float] = 100.0
    # cumulative-table knot spacing in t: a power of two, so t / h and j * h
    # are exact and a height's first knot is the ceiling of t / h
    knot_spacing: ClassVar[float] = 0.5
    # domain floor for the normalizer inversion
    t_min: ClassVar[float] = 4.0
    # forward-map domain floor (A(t) must clear V(t_min) with margin)
    t_start: ClassVar[float] = 200.0

    def __post_init__(self):
        for name in ("quad_tol", "root_tol", "t_table_max"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise UsageError(f"{name}={val} must be finite and > 0")

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
