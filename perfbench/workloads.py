"""The three workloads: their seeded inputs, one op of each, and its checks.

* ``build``  -- extend an empty knot table knot by knot to ``T_TOP``, then
  save and reload it.  The write path.
* ``verify`` -- one hybrid-identity report per op on a warm model, each with
  a fresh ``ChainFactory``, the way ``zetaladder verify`` runs.  The read path.
* ``scan``   -- ``invariance_scan`` batches of ``secondary_v1`` on two forked
  workers.  Mixed reads and writes, and the only process-pool path.

No check reuses the code path it checks.  The build check re-integrates its
eta-route knot with mpmath, which shares no code with zetaladder, and its
Riemann-Siegel knots with the scalar Z route rather than the batched panel.
The report rule is restated from the CLI rather than imported from it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterator

import numpy as np

from zetaladder import hybrid, numerics, zeta
from zetaladder.config import RunConfig
from zetaladder.ladder import LadderModel
from zetaladder.tower import ChainFactory

from spans import FORMULAS

CONFIG = RunConfig()
#: the tier-1 fixture height; every verify window's tower fits below it
T_TOP = 2200.0
KNOTS = int(round(T_TOP / CONFIG.knot_spacing))
#: knots per build whose increment is re-integrated independently
CHECKED_KNOTS = 4

#: the three delta pairs of the acceptance gate
PAIRS = (
    hybrid.DeltaPair(Fraction(1, 3), Fraction(1, 5)),
    hybrid.DeltaPair(Fraction(1, 2), Fraction(1)),
    hybrid.DeltaPair(Fraction(1), Fraction(2)),
)
#: formulas that take one depth, k2
ONE_DEPTH = ("beta_product_elim", "mixed_product")
VERIFY_TOL = 1e-6
SCAN_PAIR = PAIRS[0]
SCAN_SAMPLES = 20
SCAN_WORKERS = 2
SCAN_TOL = 1e-5


# -- build -----------------------------------------------------------------------


def check_build(model: LadderModel, loaded: LadderModel,
                rng: np.random.Generator) -> list[str]:
    """Reload is bit-identical, A never decreases, seeded knots re-integrate."""
    errors = []
    vals = np.asarray(model.table.values)
    if np.asarray(loaded.table.values).tobytes() != vals.tobytes():
        errors.append("reloaded table differs from the saved one")
    if np.any(np.diff(vals) < 0.0):
        errors.append("A decreases between knots")
    h = model.table.spacing
    built = len(vals) - 1
    if built < 1:
        return errors
    eta_top = min(built, int(CONFIG.rs_switch / h))
    picks = [int(rng.integers(1, eta_top + 1))]
    picks += [int(j) for j in rng.integers(1, built + 1, size=CHECKED_KNOTS - 1)]
    for j in picks:
        a, b = (j - 1) * h, j * h
        ref = _mp_increment(a, b) if b <= CONFIG.rs_switch else _scalar_increment(a, b)
        got = vals[j] - vals[j - 1]
        if not abs(got - ref) <= CONFIG.quad_tol:
            errors.append(f"knot {j}: increment {got!r}, re-integrated {ref!r}")
    return errors


def _mp_increment(a: float, b: float) -> float:
    """The integral of |zeta(1/2 + iu)|^2 over [a, b], by mpmath alone."""
    import mpmath  # here, so that set-up time does not include it

    with mpmath.workdps(20):
        return float(mpmath.quad(lambda u: abs(mpmath.zeta(mpmath.mpc(0.5, u))) ** 2, [a, b]))


def _scalar_increment(a: float, b: float) -> float:
    """The same integral over scalar Z.  mpmath is no reference here: at t = 1000
    zetaladder's |Z|^2 differs from mpmath's by 2e-8 relative (Riemann-Siegel
    truncation), so one knot's increment differs by 6e-10, above ``quad_tol``."""
    wavelength = 2.0 * math.pi / max(0.5, math.log(max(b, 7.0) / (2.0 * math.pi)))
    return numerics.integrate(lambda u: zeta.zeta_mod_sq(u, CONFIG), a, b,
                              tol=CONFIG.quad_tol * (b - a), min_wavelength=wavelength).value


# -- verify ----------------------------------------------------------------------


def warm_model() -> LadderModel:
    """The table ``zetaladder verify`` builds on every run (it never reads the cache)."""
    model = LadderModel(CONFIG)
    model.extend_to(T_TOP)
    return model


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points of [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def verify_blocks(seed: int) -> Iterator[list[tuple[Any, ...]]]:
    """Endless seeded blocks of eight ops, one per formula in a fixed order.

    An op's cost is set mostly by its formula and its tower depths; L, U and
    the delta pair hardly move it.  So the depths are fixed: the six formulas
    that take (k1, k2) get the six ordered pairs k1 != k2, one each, and the
    two that use k2 alone get k2 = 1 and k2 = 3.  Every block, and every run
    wherever it ends, then measures the same formula and depth mix; the seed
    draws L, U and the delta pair of each op.
    """
    rng = np.random.default_rng(seed)
    n = len(FORMULAS)
    pairs = iter([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b])
    single = iter([(2, 1), (2, 3)])
    depths = {f: next(single if f in ONE_DEPTH else pairs) for f in FORMULAS}
    while True:
        ls = 150 + (_strata(rng, n) * 351).astype(int)
        us = 0.3 + _strata(rng, n) * 1.15
        ps = rng.permutation(np.resize(np.arange(len(PAIRS)), n))
        yield [(f, int(ls[i]), float(us[i]), *depths[f], PAIRS[ps[i]])
               for i, f in enumerate(FORMULAS)]


def run_formula(model: LadderModel, op: tuple[Any, ...]) -> hybrid.HybridReport:
    """One report with a fresh factory; echf2/ternary reuse k1, k2 as k3, k4."""
    name, l, u, k1, k2, pair = op
    factory = ChainFactory(model)
    fn = getattr(hybrid, name)  # looked up per call, so trace wrappers apply
    if name == "echf1":
        return fn(factory, l, u, k1, k2)
    if name == "mixed_product":
        return fn(factory, l, u, k2)
    if name == "beta_product_elim":
        return fn(factory, pair, l, u, k2)
    if name == "ternary":
        return fn(factory, pair, l, u, k1, k2, k1, k2)
    return fn(factory, pair, l, u, k1, k2)


def report_error(rep: hybrid.HybridReport) -> str | None:
    """The CLI's pass rule: residual within 1e-6; ASYMPTOTIC_17 gates on its
    anchor and on the drift agreeing with its prediction within a factor 3."""
    if rep.formula_id == "ASYMPTOTIC_17":
        if rep.extras["anchor_residual"] > VERIFY_TOL:
            return f"anchor residual {rep.extras['anchor_residual']:.3e}"
        dev, pred = rep.extras["deviation"], rep.extras["predicted_deviation"]
        if abs(dev) < 1e-12 and abs(pred) < 1e-12:
            return None
        if pred == 0.0 or not 1.0 / 3.0 <= dev / pred <= 3.0:
            return f"drift {dev:.3e} vs predicted {pred:.3e}"
        return None
    if not rep.rel_residual <= VERIFY_TOL:
        return f"{rep.formula_id} residual {rep.rel_residual:.3e}"
    return None


# -- scan ------------------------------------------------------------------------


def scan_seed(seed: int, batch: int) -> int:
    """The benchmark seed itself for the first batch, derived ones after it."""
    if batch == 0:
        return seed
    return int(np.random.SeedSequence([seed, batch]).generate_state(1)[0])


def run_scan(seed: int) -> hybrid.InvarianceScan:
    """One scan batch with the CLI's default U/L/k ranges."""
    return hybrid.invariance_scan(SCAN_PAIR, n_samples=SCAN_SAMPLES, seed=seed,
                                  config=CONFIG, workers=SCAN_WORKERS)


def scan_errors(scan: hybrid.InvarianceScan) -> list[str]:
    """One entry per failed sample: it raised, or it left the CLI's tolerance."""
    errors = [f"sample {p}: {e}" for p, e in scan.failures]
    for params, lhs in scan.samples:
        dev = abs(lhs - scan.constant) / scan.constant
        if not dev <= SCAN_TOL:
            errors.append(f"sample {params}: rel dev {dev:.3e} > {SCAN_TOL:g}")
    return errors
