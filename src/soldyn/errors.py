"""Exception types shared across the package."""


class SoldynError(Exception):
    """Base class for all library errors."""


class DepthExceeded(SoldynError):
    """A profinite query needs more residue levels than the value stores."""


class NotMonotone(SoldynError):
    """Breakpoint data does not describe a strictly increasing lift."""


class EmptyBreakpoints(SoldynError):
    """A piecewise-linear lift needs at least one breakpoint."""


class DegreeMismatch(SoldynError):
    """Operation requires lifts of equal (or compatible) degree."""


class AnalyticExactUnsupported(SoldynError):
    """Exact operation requested on a float-precision analytic lift."""


class BreakpointCapExceeded(SoldynError):
    """Materializing an iterated map would exceed the breakpoint cap."""


class SweepBudgetExceeded(SoldynError):
    """A certificate search would test more candidates than its budget."""


class NotMultiple(SoldynError):
    """Target degree is not a multiple of the source degree."""


class NotInducedAtLevel(SoldynError):
    """The map does not cover a circle homeomorphism at the requested level."""


class NotHomeomorphism(SoldynError):
    """Displacement data fails the slope margin; id + delta is not increasing."""


class NotDivisorChain(SoldynError):
    """Tower periods must each divide the next."""


class MixedHulls(SoldynError):
    """Hull points built over different displacement functions."""


class NotIncreasing(SoldynError):
    """Quotient parameter map t + delta(t) is not strictly increasing."""


class NoSuchOrbit(SoldynError):
    """No exact return orbit exists for the requested p/q."""


class CertificateMismatch(SoldynError):
    """A certificate failed its independent exact re-check."""
