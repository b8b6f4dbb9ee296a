"""zetaladder: mean-value chains over the cumulative mass of Hardy's Z.

The package builds the slowly varying inverse ("the ladder") of

    A(T) = integral_0^T Z(u)^2 du,      V(y) = y log y + (gamma - log 2pi) y,

iterates it over towers of segments, solves the mean-value point chains that
turn integral identities into pointwise products of the normalized square
``ztilde_sq = Z^2 / V'(phi1)``, and verifies the combined identities those
chains satisfy -- including the parameter-free constant
[(1+d4)^(1/d4)/(1+d3)^(1/d3)]^(d3 d4/(d3-d4)), which for (1/3, 1/5) equals
81 sqrt(10) / 250.

Quick start::

    from zetaladder import LadderModel, ChainFactory, DeltaPair, secondary_v1
    from fractions import Fraction

    factory = ChainFactory(LadderModel())
    pair = DeltaPair(Fraction(1, 3), Fraction(1, 5))
    report = secondary_v1(factory, pair, l=200, u=1.0, k1=1, k2=2)
    print(report.lhs, report.rhs, report.rel_residual)

The ``zetaladder`` console script exposes the same operations
(``ladder-build``, ``verify``, ``scan``).
"""
from .config import DEFAULT_CONFIG, EULER_GAMMA, RunConfig
from .errors import (
    BracketInvalid,
    CacheCorrupt,
    CacheHashMismatch,
    ConditionTooHigh,
    DeltaDegenerate,
    DomainTooSmall,
    IndexOutOfTower,
    NoCrossing,
    NonConvergence,
    NumericalError,
    RangeTooLarge,
    TableExhausted,
    UsageError,
    ZetaLadderError,
)
from .gaps import GapReport, gap_rho, prime_pi
from .hybrid import (
    DeltaPair,
    HybridReport,
    InvarianceScan,
    asymptotic_secondary,
    beta_product_elim,
    echf1,
    echf2,
    invariance_scan,
    mixed_product,
    secondary_v1,
    secondary_v2,
    ternary,
    theorem1_constant,
    theorem2_constant,
)
from .ladder import CumulativeTable, LadderModel, normalizer, normalizer_prime
from .numerics import Bracket, QuadratureResult, find_level_crossing, integrate, invert_increasing
from .tower import (
    ChainFactory,
    ChainPoints,
    GeneratingFunction,
    IterationTower,
    Segment,
    chain_identity_residual,
    gf_cos2,
    gf_one,
    gf_power,
    gf_sin2,
    lemma_residual,
    make_chain_weight,
)
from .zeta import ZSample, err_bound, hardy_z, rs_theta, zeta_mod_sq

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # config
    "DEFAULT_CONFIG", "EULER_GAMMA", "RunConfig",
    # errors
    "ZetaLadderError", "UsageError", "NumericalError", "DomainTooSmall",
    "RangeTooLarge", "DeltaDegenerate", "IndexOutOfTower", "CacheHashMismatch",
    "CacheCorrupt",
    "NonConvergence", "BracketInvalid", "NoCrossing", "TableExhausted",
    "ConditionTooHigh",
    # numerics
    "Bracket", "QuadratureResult", "integrate", "invert_increasing",
    "find_level_crossing",
    # zeta
    "ZSample", "hardy_z", "rs_theta", "zeta_mod_sq", "err_bound",
    # ladder
    "CumulativeTable", "LadderModel", "normalizer",
    "normalizer_prime",
    # tower
    "Segment", "IterationTower", "GeneratingFunction", "ChainPoints",
    "ChainFactory", "gf_one", "gf_sin2", "gf_cos2", "gf_power",
    "make_chain_weight", "chain_identity_residual", "lemma_residual",
    # hybrid
    "DeltaPair", "HybridReport", "InvarianceScan", "theorem1_constant",
    "theorem2_constant", "echf1", "echf2", "beta_product_elim",
    "secondary_v1", "mixed_product", "secondary_v2", "ternary",
    "asymptotic_secondary", "invariance_scan",
    # gaps
    "GapReport", "prime_pi", "gap_rho",
]
