"""Rotation numbers with certified enclosures and fiber-periodic dynamics.

The enclosure is the classical one for monotone lifts: a degree-n lift's
translation number tau satisfies |F^q(x) - x - q tau| < n, so
[(F^q(x) - x - n)/q, (F^q(x) - x + n)/q] always contains it.
translation_enclosure gives this width-2n/q interval for any lift; an
induced map is measured through its leaf lift.  A PL lift's orbit is exact,
from Fraction(x0) also for a binary64 start; an analytic lift's is binary64.

Exact certification scans g = F^q - id - p for its first zero
(`plkernel.first_return`) on the walk of F^q's last composition, never built
(`plkernel.last_pairs`).  F^d(w) = w + p has a solution iff tau = p/d
(Herman, Publ. Math. IHES 49, 1979).  At degree 1 the orbit that gives the
enclosure also gives a Farey bracket: v_m = F^m(x) - x >= p forces
tau >= p/m and v_m <= p forces tau <= p/m, so tau lies in [L, U] with
L = max floor(v_m)/m and U = min ceil(v_m)/m over m <= M, and no rational
with denominator <= M lies strictly between.  Only L or U can certify; the
second is tested only when the first end a/q fails and q times the second
lies in the range of F^q - id that the first scan returns, as q tau does.
At degree n >= 2 a return with n not dividing p does not pin tau, so every
denominator is tried in order, within SWEEP_BUDGET numerators.  Every power
and every product is held to `plkernel.BREAKPOINT_CAP` by `plkernel.check_cap`.
Analytic maps get binary64 enclosures only, and no certificate.

fiber_target and classify_orbit find the limit of a non-periodic orbit the
same way: the nearest fixed point of the leafwise return map G - p, with
G = F_k^q, in the direction the orbit moves, found from the start taken
exactly.  The scan that finds a certificate's witness finds it too, run on
the conjugate G(x + x0) - x0 of the start x0 (see `_nearest_return`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import plkernel
from .circlemaps import CircleLift, PLLift, _pl
from .errors import (
    AnalyticExactUnsupported,
    CertificateMismatch,
    DegreeMismatch,
    NoSuchOrbit,
    SweepBudgetExceeded,
)
from .induced import InducedHomeo, apply_iter
from .profinite import DEFAULT_DEPTH, embed_int
from .solenoid import SolenoidPoint, canonicalize, sigma, sol_add, sol_dist

# Most numerators the degree n >= 2 sweep of rational_certificate may test,
# summed over its denominators; past it the sweep raises SweepBudgetExceeded.
SWEEP_BUDGET = 100_000


@dataclass(frozen=True)
class RotationEnclosure:
    """Certified rational interval [lo, hi] containing the translation number.

    When `exact` is present it is a reduced rational inside the interval and
    `witness` satisfies F^q(witness) = witness + p exactly.
    """

    lo: Fraction
    hi: Fraction
    iters: int
    exact: Optional[Fraction] = None
    witness: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("enclosure has lo > hi")
        if self.exact is not None and not self.lo <= self.exact <= self.hi:
            raise ValueError("exact value outside enclosure")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_report(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "exact": None if self.exact is None else str(self.exact),
            "witness": None if self.witness is None else str(self.witness),
        }


def translation_enclosure(F: CircleLift, q: int, x0=0) -> RotationEnclosure:
    """Finite-q enclosure of tau(F) for a degree-n lift; width exactly 2n/q.
    A PL lift is iterated exactly from Fraction(x0), also for a binary64 x0."""
    if q < 1:
        raise ValueError("iteration count must be >= 1")
    n = F.degree
    if isinstance(F, PLLift):
        x0 = Fraction(x0)
    v = F.iterate_eval(x0, q)
    d = Fraction(v - x0)
    return RotationEnclosure((d - n) / q, (d + n) / q, q)


def enclosure_sequence(F: CircleLift, q_max: int, x0=0):
    """Yield the enclosures for q = 1..q_max from one orbit, from Fraction(x0) for a PL lift."""
    if F.degree != 1:
        raise DegreeMismatch("enclosure_sequence needs a degree-1 lift")
    if isinstance(F, PLLift):
        x0 = Fraction(x0)
    x = x0
    for q in range(1, q_max + 1):
        x = F.eval(x)
        d = Fraction(x - x0)
        yield RotationEnclosure((d - 1) / q, (d + 1) / q, q)


def _return(n: int, pair, p: int):
    """`plkernel.first_return` on a `plkernel.last_pairs` pair, walked."""
    outer, inner = pair
    points = plkernel.rows(n, outer) if inner is None else plkernel.walk(n, outer, inner, True)
    return plkernel.first_return(n, points, p)


def certify_rational(F: PLLift, p: int, q: int) -> Optional[Fraction]:
    """Leftmost exact solution of F^q(x) = x + p in [0, degree), or None.

    Scans g(x) = F^q(x) - x - p on F^q's last composition, walked, up to the
    first zero, at a breakpoint or solved in closed form inside a piece.
    """
    n = _pl(F, "certification needs a PL lift").degree
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not reduced")
    wit = _return(n, next(plkernel.last_pairs(n, F._table, (q,))), p)
    return wit if isinstance(wit, Fraction) else None


def _orbit_bracket(F: PLLift, x0: Fraction, steps: int, q: int):
    """Walk the orbit of x0 for `steps` >= 1 steps.

    Returns (vq, L, U): v_q = F^q(x0) - x0 as an integer pair (num, den),
    den > 0, for 1 <= q <= steps, and the Farey bracket [L, U] of tau from
    v_m, m <= steps.  The orbit runs on F's integer table and the bracket is
    kept as integer pairs, updated by cross-multiplication, so a step builds
    no Fraction.
    """
    table, forms, n = F._table, F._forms, F.degree
    a, b = an, ad = x0.numerator, x0.denominator
    ln, ld, un, ud = -1, 0, 1, 0  # L = -inf, U = +inf
    for m in range(1, steps + 1):
        a, b = plkernel.eval_pair(table, forms, n, a, b)
        num = a * ad - an * b
        den = b * ad
        if m == q:
            vq = num, den
        fl = num // den
        if fl * ld > ln * m:
            ln, ld = fl, m
        ce = -(-num // den)
        if ce * ud < un * m:
            un, ud = ce, m
    return vq, Fraction(ln, ld), Fraction(un, ud)


def _certify_bracket(
    F: PLLift, L: Fraction, U: Fraction, lo, hi, max_den: int
) -> Optional[tuple[Fraction, Fraction]]:
    """Test the bracket ends that lie in [lo, hi] with denominator <= max_den,
    by (denominator, value), each on a pair pulled from one chain of squares.
    The second is tested only when the first end a/q fails and q times it
    lies in the range of G - id, G = F^q, that the first scan returns, as
    q tau does."""
    ends = (L,) if L == U else sorted((L, U), key=lambda c: (c.denominator, c))
    cands = [c for c in ends if c.denominator <= max_den and lo <= c <= hi]
    n = F.degree
    pairs = plkernel.last_pairs(n, F._table, (c.denominator for c in cands))
    miss = None
    for cand in cands:
        p, q = cand.numerator, cand.denominator
        # miss is set only for the second of at most two ends, so a skip ends the search
        if miss is not None:
            (ln, ld), (hn, hd) = miss
            if k * p * ld < ln * q or k * p * hd > hn * q:
                return None
        miss, k = _return(n, next(pairs), p), q
        if isinstance(miss, Fraction):
            return cand, miss
    return None


def rational_certificate(
    F: PLLift, lo: Fraction, hi: Fraction, max_den: int
) -> Optional[tuple[Fraction, Fraction]]:
    """Search [lo, hi] for a certified rational rotation number.

    Returns (p/q, witness) with q <= max_den, where the witness is the
    leftmost x in [0, degree) with F^q(x) = x + p, or None, which means: no
    rational in [lo, hi] with denominator <= max_den certifies.

    At degree 1 only tau can certify: the orbit of 0 over max_den steps
    brackets it between two candidates (see the module docstring).  At
    degree n >= 2 several p/q can have exact returns, so every reduced p/q in
    the interval is tried by increasing denominator on the table of
    F^q = F o F^(q-1), quadratic in max_den; past SWEEP_BUDGET numerators,
    counted first, the sweep raises SweepBudgetExceeded before it tests any.
    """
    n = _pl(F, "certification needs a PL lift").degree
    if n == 1:
        if max_den < 1:
            return None
        _, L, U = _orbit_bracket(F, Fraction(0), max_den, max_den)
        return _certify_bracket(F, L, U, lo, hi, max_den)
    spans, total = [], 0
    for den in range(1, max_den + 1):
        first, last = math.ceil(lo * den), math.floor(hi * den)
        total += max(last - first + 1, 0)
        if total > SWEEP_BUDGET:
            raise SweepBudgetExceeded(
                f"the sweep up to denominator {max_den} would test more than "
                f"{SWEEP_BUDGET} numerators"
            )
        spans.append(range(first, last + 1))
    G = None
    for den, nums in enumerate(spans, start=1):
        G = F._table if G is None else plkernel.compose(n, F._table, G)
        plkernel.check_cap(len(G[0]), "more than {cap} breakpoints")
        for num in nums:
            if math.gcd(num, den) != 1:
                continue
            wit = plkernel.first_return(n, plkernel.rows(n, G), num)
            if isinstance(wit, Fraction):
                return Fraction(num, den), wit
    return None


def _checked(F: PLLift, lo: Fraction, hi: Fraction, iters: int, found) -> RotationEnclosure:
    """The enclosure [lo, hi] from `iters` steps, with the certificate `found`
    attached after its witness is re-checked."""
    if found is None:
        return RotationEnclosure(lo, hi, iters)
    cand, wit = found
    if F.iterate_eval(wit, cand.denominator) != wit + cand.numerator:
        raise CertificateMismatch(f"witness {wit} fails the return identity for {cand}")
    return RotationEnclosure(lo, hi, iters, cand, wit)


def rotation_report(
    F: Union[CircleLift, InducedHomeo], q: int, x0=0, max_cert_den: Optional[int] = None
) -> RotationEnclosure:
    """Enclosure of tau plus, for PL maps, an exact certificate when one exists.

    F is a degree-1 lift or an induced map of any degree (whose leaf lift
    gives an enclosure of width 2n/q).  Certification tries denominators up
    to max_cert_den (default min(q, 1000)).  A missing `exact` field
    therefore reads: no rational with denominator up to the bound has an
    exact return orbit.  A found certificate is re-checked by iterating the
    lift from the witness; a failure raises CertificateMismatch.

    At degree 1 one orbit pass of max(q, max_cert_den) evaluations gives
    both the enclosure and the Farey bracket, whose at most two ends are
    scanned as rational_certificate scans them.  The orbit is that of
    Fraction(x0), exact also for a binary64 x0.  Degree n >= 2 runs the
    per-denominator search of rational_certificate.
    """
    if max_cert_den is None:
        max_cert_den = min(q, 1000)
    if isinstance(F, InducedHomeo):
        F = F.leaf_lift()
    elif F.degree != 1:
        raise DegreeMismatch("rotation_report needs a degree-1 lift or an induced map")
    if not isinstance(F, PLLift):
        return translation_enclosure(F, q, x0)
    if F.degree != 1:
        enc = translation_enclosure(F, q, x0)
        return _checked(F, enc.lo, enc.hi, q, rational_certificate(F, enc.lo, enc.hi, max_cert_den))
    if q < 1:
        raise ValueError("iteration count must be >= 1")
    (num, den), L, U = _orbit_bracket(F, Fraction(x0), max(q, max_cert_den), q)
    # (v_q - 1) / q and (v_q + 1) / q, v_q = num / den
    lo, hi = Fraction(num - den, den * q), Fraction(num + den, den * q)
    found = _certify_bracket(F, L, U, lo, hi, max_cert_den)
    return _checked(F, lo, hi, q, found)


@dataclass(frozen=True)
class FiberPeriodic:
    """The exact return identity f^q(s) = s + sigma(p) holds at the point."""

    p: int
    q: int
    point: SolenoidPoint


@dataclass(frozen=True)
class AsymptoticToFiber:
    """The orbit approaches the p/q-fiber through `target` monotonically."""

    p: int
    q: int
    target: SolenoidPoint
    distance: Fraction
    iterations: int
    trace: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class Inconclusive:
    reason: str
    trace: tuple = field(default=(), compare=False)


OrbitClassification = Union[FiberPeriodic, AsymptoticToFiber, Inconclusive]


def find_fiber_periodic(
    f: InducedHomeo, p: int, q: int, depth: int = DEFAULT_DEPTH
) -> SolenoidPoint:
    """A point s with f^q(s) = s + sigma(p), built over the zero fiber.

    Solves the leafwise return equation exactly on one period; raises
    NoSuchOrbit when no exact return orbit exists (certification fails).
    """
    wit = certify_rational(_pl(f.leaf_lift(), "fiber-periodic search needs a PL lift"), p, q)
    if wit is None:
        raise NoSuchOrbit(f"no orbit with return p/q = {p}/{q}")
    s = canonicalize(wit, embed_int(0, depth))
    if apply_iter(f, s, q) != sol_add(s, sigma(p, depth)):
        raise CertificateMismatch(f"point over {wit} fails f^{q}(s) = s + sigma({p})")
    return s


def _nearest_return(G: PLLift, p: int, x0: Fraction) -> Optional[Fraction]:
    """The fixed point of G - p that the orbit of x0 converges to: the zero of
    g(x) = G(x) - x - p nearest to x0, at or above it when g(x0) >= 0 and
    below it when g(x0) < 0; None if g has constant sign.  The zeros of g in
    [x0, x0 + n) are x0 + u for the zeros u in [0, n) of the conjugate
    G(x + x0) - x0, so the scan of the conjugate from the left (or from the
    right, then less n) finds it.
    """
    n = G.degree
    g0 = G.eval(x0) - x0 - p
    table = plkernel.shift_input(n, G._table, x0.numerator, x0.denominator)
    u = plkernel.first_return(n, plkernel.rows(n, table), p, rightmost=g0 < 0)
    if not isinstance(u, Fraction):
        return None
    return x0 + u - n if g0 < 0 else x0 + u


def _return_fixed_point(f: InducedHomeo, s: SolenoidPoint, p: int, q: int):
    """(G, x_inf): the return lift G = F_k^q at the fiber of s and the fixed
    point x_inf of G - p that the orbit of s.x, taken exactly, converges to.

    Raises AnalyticExactUnsupported for an analytic base and NoSuchOrbit
    when the return map is untracked or has no fixed point.
    """
    _pl(f.base, "fiber targets need a PL base")
    n = f.degree
    if n != 1 and p % n != 0:
        # h^m tracks f^{qm} only when integer translation by p commutes
        # with the fiber lift, i.e. n | p (always true at degree 1).
        raise NoSuchOrbit(f"return map untracked for degree {n} with p = {p}")
    G = f.fiber_lift(s.k).power(q)
    x_inf = _nearest_return(G, p, Fraction(s.x))
    if x_inf is None:
        raise NoSuchOrbit("return map has no fixed point; rho(f) != p/q")
    return G, x_inf


def fiber_target(f: InducedHomeo, s: SolenoidPoint, p: int, q: int) -> SolenoidPoint:
    """The p/q-fiber periodic point the orbit of s converges to.

    For a fiber-periodic s this is s itself; otherwise it is the point over
    the nearest fixed point of the leafwise return map in the direction of
    motion.  Raises NoSuchOrbit when the return map has no fixed point.
    """
    if apply_iter(f, s, q) == sol_add(s, sigma(p, s.depth)):
        return s
    _, x_inf = _return_fixed_point(f, s, p, q)
    return canonicalize(x_inf, s.k)


def classify_orbit(
    f: InducedHomeo,
    s: SolenoidPoint,
    p: int,
    q: int,
    max_iters: int = 10_000,
    tol=Fraction(1, 10**6),
    collect_trace: bool = False,
) -> OrbitClassification:
    """Decide whether s is p/q-fiber periodic or asymptotic to such a point.

    Caller certifies rho(f) = p/q beforehand.  The method is the monotone
    leafwise return map h = F_k^q - p: its orbit converges one-sidedly to a
    fixed point, and the fiber-periodic point over that limit is the target.
    Verdicts are conservative; a budget or precondition failure reports
    Inconclusive, never a wrong verdict.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if apply_iter(f, s, q) == sol_add(s, sigma(p, s.depth)):
        return FiberPeriodic(p, q, s)
    try:
        G, x_inf = _return_fixed_point(f, s, p, q)
    except AnalyticExactUnsupported:
        return Inconclusive("asymptotics need a PL lift")
    except NoSuchOrbit as exc:
        return Inconclusive(str(exc))
    target = canonicalize(x_inf, s.k)
    x = s.x
    trace = []
    steps = max_iters // q
    for m in range(1, steps + 1):
        x = G.eval(x) - p
        d = sol_dist(canonicalize(x, s.k), target)
        if collect_trace:
            trace.append((m * q, d))
        if d < tol:
            return AsymptoticToFiber(p, q, target, d, m * q, tuple(trace))
    return Inconclusive(
        f"budget of {max_iters} iterations exhausted", tuple(trace)
    )
