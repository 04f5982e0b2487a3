"""Computable dynamics of solenoid homeomorphisms.

Exact profinite/solenoid arithmetic, piecewise-linear circle lifts, induced
homeomorphisms of every degree, certified rotation enclosures, fiber-periodic
orbit detection, and hull/semi-conjugacy verification.
"""

from .circlemaps import (
    AnalyticLift,
    PeriodicPL,
    PLLift,
    analytic_new,
    divisors,
    identity_lift,
    map_from_descriptor,
    minimal_period,
    pl_new,
    rotation_lift,
)
from .dynamics import (
    AsymptoticToFiber,
    FiberPeriodic,
    Inconclusive,
    RotationEnclosure,
    certify_rational,
    classify_orbit,
    enclosure_sequence,
    fiber_target,
    find_fiber_periodic,
    rational_certificate,
    rotation_report,
    translation_enclosure,
)
from .errors import (
    AnalyticExactUnsupported,
    BreakpointCapExceeded,
    CertificateMismatch,
    DegreeMismatch,
    DepthExceeded,
    EmptyBreakpoints,
    MixedHulls,
    NoSuchOrbit,
    NotDivisorChain,
    NotHomeomorphism,
    NotIncreasing,
    NotInducedAtLevel,
    NotMonotone,
    NotMultiple,
    SoldynError,
    SweepBudgetExceeded,
)
from .hull import (
    CircleMapModN,
    Hull,
    HullPoint,
    K_map,
    LimitPeriodicCertified,
    Periodic,
    QuotientMap,
    SemiconjugacyReport,
    check_semiconjugacy,
    circle_map,
    g_apply,
    hull_dist,
    hull_inv,
    hull_mul,
    hull_of,
    isotopy_eval,
    leaf_quotient,
    lp_hull_level,
    periodicity_classify,
    quotient_map,
)
from .induced import (
    InducedHomeo,
    LimitPeriodicHomeo,
    apply,
    apply_iter,
    compose_induced,
    cover_eval,
    displacement_at,
    embed_degree,
    homeo_from_descriptor,
    identity_homeo,
    induce,
    invert_induced,
    leaf_displacement,
    lp_build,
    lp_from_descriptor,
    lp_truncate,
    translation_homeo,
)
from .profinite import (
    DEFAULT_DEPTH,
    ProfiniteInt,
    embed_int,
    parse_profinite,
    pf_add,
    pf_dist,
    pf_neg,
)
from .solenoid import (
    CirclePointModN,
    SolenoidPoint,
    canonicalize,
    deck,
    parse_point,
    project,
    sigma,
    sol_add,
    sol_dist,
    sol_neg,
    zero_point,
)

__version__ = "0.1.0"
