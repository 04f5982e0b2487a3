"""The universal one-dimensional solenoid at finite transverse depth.

Points are classes of (x, k) in R x Zhat under the deck action
t.(x, k) = (x + t, k - t); every class has a unique representative with
leaf coordinate in [0, 1).  The leaf coordinate is an exact rational by
default; binary64 is accepted for analytic-map experiments and propagates
through all operations.  An exact x = a/b is evaluated on the integer pair
(a, b): `project` builds its reduced pair's Fraction with no second gcd,
and `sol_dist` builds one Fraction.

Input is checked once, where it enters: `SolenoidPoint(x, k)`,
`CirclePointModN(n, v)` and `parse_point` refuse a coordinate out of range,
and `project` raises DepthExceeded unless n divides depth!.  Points the
library derives (`canonicalize`, `project`) are built by the `_trusted`
constructors from coordinates already reduced, and their fiber carries by
`ProfiniteInt._trusted`, so none is checked again.  Points keep their
attributes in slots; a copied or unpickled point is rebuilt by the checked
constructor.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .circlemaps import as_rational
from .plkernel import fraction
from .profinite import DEFAULT_DEPTH, ProfiniteInt, embed_int, pf_add, pf_neg

Coordinate = Fraction | float


@dataclass(frozen=True)
class SolenoidPoint:
    """Canonical representative (x, k) with 0 <= x < 1."""

    __slots__ = ("x", "k")
    x: Coordinate
    k: ProfiniteInt

    def __post_init__(self) -> None:
        if isinstance(self.x, int):
            object.__setattr__(self, "x", Fraction(self.x))
        if not 0 <= self.x < 1:
            raise ValueError(f"leaf coordinate {self.x} outside [0, 1)")

    @classmethod
    def _trusted(cls, x: Coordinate, k: ProfiniteInt) -> "SolenoidPoint":
        """A point from a Fraction or float x already known to lie in [0, 1)."""
        s = _new(cls)
        _set_x(s, x)
        _set_k(s, k)
        return s

    def __reduce__(self):
        return type(self), (self.x, self.k)

    @property
    def depth(self) -> int:
        return self.k.depth

    def render(self) -> str:
        inner = ", ".join(str(r) for r in self.k.residues)
        return f"x={self.x}; k=({inner})"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class CirclePointModN:
    """A point of R/nZ in its canonical range [0, n)."""

    __slots__ = ("modulus", "value")
    modulus: int
    value: Coordinate

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if isinstance(self.value, int):
            object.__setattr__(self, "value", Fraction(self.value))
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value} outside [0, {self.modulus})")

    @classmethod
    def _trusted(cls, modulus: int, value: Coordinate) -> "CirclePointModN":
        """A point from a modulus >= 1 and a Fraction or float value already
        known to lie in [0, modulus)."""
        c = _new(cls)
        _set_modulus(c, modulus)
        _set_value(c, value)
        return c

    def __reduce__(self):
        return type(self), (self.modulus, self.value)


# the `_trusted` constructors set slots through their descriptors, past the
# frozen dataclasses' __setattr__
_new = object.__new__
_set_x, _set_k = SolenoidPoint.x.__set__, SolenoidPoint.k.__set__
_set_modulus, _set_value = CirclePointModN.modulus.__set__, CirclePointModN.value.__set__


def canonicalize(x: Coordinate, k: ProfiniteInt) -> SolenoidPoint:
    """Unique class representative: shift x into [0, 1), compensating in k."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        t = x.numerator // x.denominator
        y = x - t if t else x
    else:
        t = math.floor(x)
        y = x - t
        if y == 1:
            # binary64: for a tiny negative x, x - floor(x) rounds up to 1.0
            y, t = 0.0, t + 1
    if t == 0:
        return SolenoidPoint._trusted(y, k)
    m = k.modulus
    return SolenoidPoint._trusted(y, ProfiniteInt._trusted((k.value + t) % m, k.depth, m))


def zero_point(depth: int = DEFAULT_DEPTH) -> SolenoidPoint:
    return SolenoidPoint(Fraction(0), embed_int(0, depth))


def sol_add(s: SolenoidPoint, t: SolenoidPoint) -> SolenoidPoint:
    return canonicalize(s.x + t.x, pf_add(s.k, t.k))


def sol_neg(s: SolenoidPoint) -> SolenoidPoint:
    return canonicalize(-s.x, pf_neg(s.k))


def sigma(t: Coordinate, depth: int = DEFAULT_DEPTH) -> SolenoidPoint:
    """The dense one-parameter subgroup R -> solenoid."""
    return canonicalize(t, embed_int(0, depth))


def project(s: SolenoidPoint, n: int) -> CirclePointModN:
    """Projection onto R/nZ; requires n | depth!.  An exact x = a/b maps to
    ((a + r b) mod n b) / b on integers, a reduced pair as gcd(a, b) = 1."""
    r = s.k.residue(n)
    x = s.x
    if isinstance(x, Fraction):
        b = x.denominator
        return CirclePointModN._trusted(n, fraction((x.numerator + r * b) % (n * b), b))
    return CirclePointModN._trusted(n, (x + r) % n)


def deck(pair: tuple[Coordinate, ProfiniteInt], t: int) -> tuple[Coordinate, ProfiniteInt]:
    """Deck transformation on covering coordinates: (x, k) -> (x + t, k - t)."""
    x, k = pair
    return (x + t, embed_int(k.value - t, k.depth))


def sol_dist(s: SolenoidPoint, t: SolenoidPoint) -> Coordinate:
    """Translation-invariant metric: weighted arc distances of the projections.

    Sum over m = 1..M of 2^-m times the arc distance between the level-m!
    projections.  Zero exactly when the points agree at the stored depth.
    Exact leaf coordinates are put over one denominator B, so each arc is
    an integer mod B*m! and the sum one integer over B*2^M.
    """
    sv, tv = s.k.value, t.k.value
    M = min(s.depth, t.depth)
    if isinstance(s.x, Fraction) and isinstance(t.x, Fraction):
        a, b = s.x.denominator, t.x.denominator
        B = math.lcm(a, b)
        # B times the difference of the lifts x + k, reduced at each level
        diff = s.x.numerator * (B // a) - t.x.numerator * (B // b) + (sv - tv) * B
        num, Bn = 0, B
        for m in range(1, M + 1):
            Bn *= m
            d = diff % Bn
            num += min(d, Bn - d) << (M - m)
        return Fraction(num, B << M)
    total: Coordinate = 0
    n = 1
    for m in range(1, M + 1):
        n *= m
        # the level-n projections, with project's arithmetic
        d = ((s.x + sv % n) % n - (t.x + tv % n) % n) % n
        arc = min(d, n - d)
        if arc:
            total = total + arc * Fraction(1, 2**m)
    if isinstance(total, int):
        return Fraction(total)
    return total


_POINT_RE = re.compile(
    r"^\s*x\s*=\s*(?P<x>[^;]+);\s*k\s*=\s*\(\s*(?P<k>[-0-9,\s]*?)\s*\)\s*$"
)


def parse_point(text: str) -> SolenoidPoint:
    """Inverse of SolenoidPoint.render, e.g. "x=1/4; k=(0, 1, 1)"."""
    m = _POINT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse point literal: {text!r}")
    x = as_rational(m.group("x").strip())
    parts = [p.strip() for p in m.group("k").split(",") if p.strip()]
    k = ProfiniteInt.from_residues(int(p) for p in parts)
    return SolenoidPoint(x, k)
