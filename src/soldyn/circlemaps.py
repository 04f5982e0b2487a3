"""Monotone lifts of circle homeomorphisms of R/nZ.

Two representations are provided.  Piecewise-linear lifts carry exact
rational breakpoint data and support exact composition, inversion and
iteration; every certification claim in this package is made through them.
The analytic family is binary64-only and exists for exploration.

A PL lift is its degree, one integer table of the numerators and
denominators of its breakpoints, values and slopes (`plkernel`), checked
once when the lift is built from breakpoints, and its pieces' affine forms,
derived then.  Exact evaluation bisects the table by cross-multiplication
and evaluates one form; composition, powers, inverses and translates build
only tables.  A binary64 input is located on the table exactly and
evaluated in floating point, each coordinate rounded once.  `xs`, `ys` and
`slopes` build Fractions from the table on each read.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction

from . import plkernel
from .errors import (
    AnalyticExactUnsupported,
    DegreeMismatch,
    EmptyBreakpoints,
    NotMonotone,
)

BREAKPOINT_CAP = 10**6


def floor_div(x, n):
    """floor(x / n) without building intermediate Fractions; exact for exact x."""
    if isinstance(x, Fraction):
        if isinstance(n, Fraction):
            return (x.numerator * n.denominator) // (x.denominator * n.numerator)
        return x.numerator // (x.denominator * n)
    if isinstance(x, int):
        return x // n
    return math.floor(x / n)


def as_rational(v) -> Fraction:
    """Coerce exact input (int, Fraction, 'p/q' string) to Fraction.

    Floats and booleans (a JSON `true` would read as 1) are rejected: the PL
    variant is the exact one, and silently coercing them would poison certifications.
    """
    if isinstance(v, (float, bool)):
        raise TypeError(f"exact PL data requires int/Fraction/str, not {type(v).__name__}")
    return Fraction(v)


def _slope(x0: Fraction, y0: Fraction, x1: Fraction, y1: Fraction) -> Fraction:
    """(y1 - y0) / (x1 - x0) over common denominators, normalized once."""
    xd0, xd1, yd0, yd1 = x0.denominator, x1.denominator, y0.denominator, y1.denominator
    return Fraction(
        (y1.numerator * yd0 - y0.numerator * yd1) * (xd0 * xd1),
        (x1.numerator * xd0 - x0.numerator * xd1) * (yd0 * yd1),
    )


def _slopes(xs, ys, period, rise) -> list:
    """Slope of the piece starting at each breakpoint; the last piece runs to
    xs[0] + period, where the value is ys[0] + rise."""
    slopes = [_slope(xs[i], ys[i], xs[i + 1], ys[i + 1]) for i in range(len(xs) - 1)]
    slopes.append(_slope(xs[-1], ys[-1], xs[0] + period, ys[0] + rise))
    return slopes


def _parts(values) -> tuple[list, list]:
    return [v.numerator for v in values], [v.denominator for v in values]


def _fractions(nums, dens) -> tuple:
    # through a list, so the tuple is allocated at its final size: a tuple
    # grown from a bare iterator is resized, and when freed it enlarges
    # CPython's tuple free lists for good
    return tuple(list(map(plkernel.fraction, nums, dens)))


class PLLift:
    """Strictly increasing piecewise-linear map with F(x + n) = F(x) + n.

    A lift is its degree, its integer table and its pieces' forms (see
    `plkernel`).  `xs`, `ys` and `slopes` are read-only views that build a
    fresh tuple of Fractions from the table on every read.
    """

    __slots__ = ("degree", "_table", "_forms")

    def __init__(self, degree: int, breakpoints) -> None:
        degree = int(degree)
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        pts = sorted((as_rational(x), as_rational(y)) for x, y in breakpoints)
        if not pts:
            raise EmptyBreakpoints("a PL lift needs at least one breakpoint")
        xs = tuple(p[0] for p in pts)
        ys = tuple(p[1] for p in pts)
        if xs[0] < 0 or xs[-1] >= degree:
            raise ValueError(f"breakpoint abscissae must lie in [0, {degree})")
        for i in range(len(xs) - 1):
            if xs[i] == xs[i + 1]:
                raise NotMonotone(f"duplicate breakpoint at x={xs[i]}")
            if ys[i] >= ys[i + 1]:
                raise NotMonotone(f"values must increase: y({xs[i]}) >= y({xs[i + 1]})")
        if ys[-1] >= ys[0] + degree:
            raise NotMonotone("wrap-around violates strict monotonicity")
        self.degree = degree
        self._table = (*_parts(xs), *_parts(ys), *_parts(_slopes(xs, ys, degree, degree)))
        self._forms = plkernel.forms(degree, self._table)

    @classmethod
    def _from_table(cls, degree: int, table) -> "PLLift":
        """The lift of a valid degree-`degree` integer table, unchecked."""
        lift = cls.__new__(cls)
        lift.degree = degree
        lift._table = table
        lift._forms = plkernel.forms(degree, table)
        return lift

    @property
    def xs(self) -> tuple:
        return _fractions(self._table[0], self._table[1])

    @property
    def ys(self) -> tuple:
        return _fractions(self._table[2], self._table[3])

    @property
    def slopes(self) -> tuple:
        return _fractions(self._table[4], self._table[5])

    def eval(self, x):
        """F(x): exact for int and Fraction x, binary64 for a float x."""
        if isinstance(x, (int, Fraction)):
            return plkernel.fraction(*plkernel.eval_pair(
                self._table, self._forms, self.degree, x.numerator, x.denominator
            ))
        n = self.degree
        j = floor_div(x, n)
        x0 = x - j * n if j else x
        xn, xd, yn, yd, sn, sd = self._table
        # the piece is located exactly; each coordinate is rounded once, as
        # float(Fraction) rounds it
        i = plkernel.locate(xn, xd, *x0.as_integer_ratio()) - 1
        if i < 0:
            x1 = (xn[-1] - n * xd[-1]) / xd[-1]
            y1 = (yn[-1] - n * yd[-1]) / yd[-1]
        else:
            x1 = xn[i] / xd[i]
            y1 = yn[i] / yd[i]
        return y1 + (x0 - x1) * (sn[i] / sd[i]) + j * n

    __call__ = eval

    def iterate_eval(self, x, q: int):
        """Evaluate F^q(x) by repeated application; q < 0 uses the inverse."""
        if q < 0:
            return self.inverse().iterate_eval(x, -q)
        if q == 0:
            return x
        if isinstance(x, (int, Fraction)):
            table, forms, n = self._table, self._forms, self.degree
            a, b = x.numerator, x.denominator
            for _ in range(q):
                a, b = plkernel.eval_pair(table, forms, n, a, b)
            return plkernel.fraction(a, b)
        for _ in range(q):
            x = self.eval(x)
        return x

    def compose(self, other: "PLLift") -> "PLLift":
        """Exact composition self(other(x)); breakpoint sets merge.

        The result's breakpoints are other's breakpoints, where self is
        evaluated at other's values, plus the preimages under other of self's
        breakpoints (see `plkernel.compose`).
        """
        if not isinstance(other, PLLift):
            raise AnalyticExactUnsupported("exact composition needs PL lifts")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        return PLLift._from_table(
            self.degree, plkernel.compose(self.degree, self._table, other._table)
        )

    def inverse(self) -> "PLLift":
        n = self.degree
        xn, xd, yn, yd, sn, sd = self._table
        # ys span less than one period, so reducing them mod n rotates the list
        j, cut = plkernel.wrap_cut(yn, yd, n)
        return PLLift._from_table(n, (
            *plkernel.reduce_rotated(yn, yd, j, cut, n),
            *plkernel.reduce_rotated(xn, xd, j, cut, n),
            sd[cut:] + sd[:cut], sn[cut:] + sn[:cut],
        ))

    def power(self, q: int, cap: int = BREAKPOINT_CAP) -> "PLLift":
        """Materialize F^q as a PL lift (exponentiation by squaring on
        integer tables)."""
        if q < 0:
            return self.inverse().power(-q, cap)
        return PLLift._from_table(self.degree, plkernel.power(self.degree, self._table, q, cap))

    def translate(self, c) -> "PLLift":
        """The lift F + c; F itself when c = 0, as lifts are immutable."""
        c = as_rational(c)
        if not c:
            return self
        table = plkernel.translate(self._table, c.numerator, c.denominator)
        return PLLift._from_table(self.degree, table)

    def shift_input(self, r) -> "PLLift":
        """Conjugation by translation: x -> F(x + r) - r."""
        r = as_rational(r)
        table = plkernel.shift_input(self.degree, self._table, r.numerator, r.denominator)
        return PLLift._from_table(self.degree, table)

    def canonical_breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Breakpoints where the slope actually changes; rotations anchor at 0.

        Two PL lifts describe the same function iff their degrees and
        canonical breakpoint tuples agree.
        """
        xn, xd, yn, yd = self._table[:4]
        keep = [
            (plkernel.fraction(xn[i], xd[i]), plkernel.fraction(yn[i], yd[i]))
            for i in plkernel.slope_changes(self._table)
        ]
        if not keep:
            z = Fraction(0)
            return ((z, self.eval(z)),)
        return tuple(keep)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLLift):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.canonical_breakpoints() == other.canonical_breakpoints()
        )

    def __hash__(self):
        return hash((self.degree, self.canonical_breakpoints()))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in zip(self.xs, self.ys))
        return f"PLLift(degree={self.degree}, [{pts}])"

    def descend(self, T: int) -> "PLLift | None":
        """F as a degree-T lift if T divides the degree and F(x + T) = F(x) + T,
        else None (see `plkernel.descend`): the inverse of `induced.embed_degree`."""
        table = plkernel.descend(self.degree, self._table, T)
        return None if table is None else PLLift._from_table(T, table)

    def displacement(self) -> "PeriodicPL":
        """x -> F(x) - x, from the table: values y - x and slopes s - 1."""
        xn, xd, yn, yd, sn, sd = self._table
        vs = [plkernel.fraction(*plkernel.add(a, b, -c, d)) for a, b, c, d in zip(yn, yd, xn, xd)]
        slopes = _fractions([a - b for a, b in zip(sn, sd)], sd)
        return PeriodicPL._trusted(Fraction(self.degree), self.xs, tuple(vs), slopes)

    def to_descriptor(self) -> dict:
        return {
            "degree": self.degree,
            "variant": "pl",
            "breakpoints": [[str(x), str(y)] for x, y in zip(self.xs, self.ys)],
        }


class AnalyticLift:
    """Binary64 lift x + alpha + sum_j a_j sin(2 pi x / T_j).

    Each period T_j must divide the degree so the lift stays n-equivariant
    (to roundoff).  The derivative margin sum |a_j| 2 pi / T_j < 1 keeps the
    map strictly increasing.
    """

    __slots__ = ("degree", "alpha", "terms")

    def __init__(self, alpha: float, terms=(), degree: int = 1) -> None:
        degree = int(degree)
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        alpha = float(alpha)
        terms = tuple((float(a), float(T)) for a, T in terms)
        if not math.isfinite(alpha):
            raise ValueError(f"alpha {alpha} is not finite")
        margin = 0.0
        for a, T in terms:
            if not (math.isfinite(a) and math.isfinite(T)):
                raise ValueError(f"perturbation term ({a}, {T}) is not finite")
            if T <= 0:
                raise ValueError("perturbation periods must be positive")
            ratio = degree / T
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"period {T} does not divide degree {degree}")
            margin += abs(a) * 2 * math.pi / T
        if margin >= 1:
            raise NotMonotone(f"derivative margin {margin} >= 1")
        self.degree = degree
        self.alpha = alpha
        self.terms = terms

    def eval(self, x):
        x = float(x)
        y = x + self.alpha
        for a, T in self.terms:
            y += a * math.sin(2 * math.pi * x / T)
        return y

    __call__ = eval

    def iterate_eval(self, x, q: int):
        if q < 0:
            raise AnalyticExactUnsupported("analytic lifts have no exact inverse")
        x = float(x)
        for _ in range(q):
            x = self.eval(x)
        return x

    def displacement(self) -> "AnalyticDisplacement":
        return AnalyticDisplacement(self)

    def to_descriptor(self) -> dict:
        return {
            "degree": self.degree,
            "variant": "analytic",
            "alpha": self.alpha,
            "terms": [[a, T] for a, T in self.terms],
        }

    def __repr__(self) -> str:
        return f"AnalyticLift(alpha={self.alpha}, terms={self.terms}, degree={self.degree})"


CircleLift = PLLift | AnalyticLift


class PeriodicPL:
    """Continuous piecewise-linear function with exact rational period."""

    __slots__ = ("period", "xs", "vs", "slopes")

    def __init__(self, period, breakpoints) -> None:
        period = as_rational(period)
        if period <= 0:
            raise ValueError("period must be positive")
        pts = sorted((as_rational(x), as_rational(v)) for x, v in breakpoints)
        if not pts:
            raise EmptyBreakpoints("a periodic PL function needs a breakpoint")
        xs = tuple(p[0] for p in pts)
        vs = tuple(p[1] for p in pts)
        if xs[0] < 0 or xs[-1] >= period:
            raise ValueError(f"breakpoint abscissae must lie in [0, {period})")
        for i in range(len(xs) - 1):
            if xs[i] == xs[i + 1]:
                raise ValueError(f"duplicate breakpoint at x={xs[i]}")
        self.period = period
        self.xs = xs
        self.vs = vs
        self.slopes = tuple(_slopes(xs, vs, period, 0))

    @classmethod
    def _trusted(cls, period: Fraction, xs: tuple, vs: tuple, slopes: tuple) -> "PeriodicPL":
        """A function from data already known to be valid, unchecked: sorted
        distinct `xs` in [0, period), their values and slopes, all Fractions."""
        d = cls.__new__(cls)
        d.period, d.xs, d.vs, d.slopes = period, xs, vs, slopes
        return d

    def eval(self, x):
        T = self.period
        j = floor_div(x, T)
        x0 = x - j * T if j else x
        i = bisect.bisect_right(self.xs, x0) - 1
        if i < 0:
            x1 = self.xs[-1] - T
            v1 = self.vs[-1]
        else:
            x1 = self.xs[i]
            v1 = self.vs[i]
        return v1 + (x0 - x1) * self.slopes[i]

    __call__ = eval

    def sup_norm(self) -> Fraction:
        """Exact sup |delta|; PL extrema occur at breakpoints."""
        return max(abs(v) for v in self.vs)

    def translate(self, t) -> "PeriodicPL":
        """The translate delta^t(x) = delta(x + t)."""
        t = as_rational(t)
        T = self.period
        zs = [x - t for x in self.xs]
        # the zs span less than T, so reducing them mod T rotates the list
        j = floor_div(zs[0], T)
        lo, hi = j * T, (j + 1) * T
        cut = bisect.bisect_left(zs, hi)
        xs = tuple([z - hi for z in zs[cut:]] + [z - lo for z in zs[:cut]])
        return PeriodicPL._trusted(
            T, xs, self.vs[cut:] + self.vs[:cut], self.slopes[cut:] + self.slopes[:cut]
        )

    def _lift_table(self) -> tuple[int, tuple]:
        """(n, the `plkernel` table of x + delta(x)) at the integer stored period n."""
        if self.period.denominator != 1:
            raise ValueError(f"stored period {self.period} is not an integer")
        ys = _parts([x + v for x, v in zip(self.xs, self.vs)])
        return self.period.numerator, (*_parts(self.xs), *ys, *_parts([s + 1 for s in self.slopes]))

    def canonical_breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        keep = []
        for i in range(len(self.xs)):
            if self.slopes[i - 1] != self.slopes[i]:
                keep.append((self.xs[i], self.vs[i]))
        return tuple(keep)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicPL):
            return NotImplemented
        if self.period != other.period:
            return False
        a, b = self.canonical_breakpoints(), other.canonical_breakpoints()
        if not a and not b:
            return self.vs[0] == other.vs[0]
        return a == b

    def __hash__(self):
        return hash((self.period, self.canonical_breakpoints() or self.vs[0]))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {v})" for x, v in zip(self.xs, self.vs))
        return f"PeriodicPL(period={self.period}, [{pts}])"


class AnalyticDisplacement:
    """Float view of F - id for an analytic lift."""

    __slots__ = ("lift",)

    def __init__(self, lift: AnalyticLift) -> None:
        self.lift = lift

    def eval(self, x):
        return self.lift.eval(x) - float(x)

    __call__ = eval


def pl_new(degree: int, breakpoints) -> PLLift:
    return PLLift(degree, breakpoints)


def analytic_new(alpha: float, terms=(), degree: int = 1) -> AnalyticLift:
    return AnalyticLift(alpha, terms, degree)


def identity_lift(degree: int = 1) -> PLLift:
    return PLLift(degree, [(0, 0)])


def rotation_lift(alpha, degree: int = 1) -> PLLift:
    """The rigid rotation lift x -> x + alpha with exact rational alpha."""
    return PLLift(degree, [(0, as_rational(alpha))])


def divisors(n: int) -> list[int]:
    """The divisors of n in ascending order, by trial division up to sqrt(n)."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def minimal_period(delta: PeriodicPL) -> int:
    """The least period of delta dividing its integer stored period, by
    `plkernel.least_period`, which never factors it.  Non-divisor rational
    periods are out of scope."""
    return plkernel.least_period(*delta._lift_table())[0]


def json_int(value, field: str) -> int:
    """A descriptor's integer field, which must be a JSON integer: no float,
    boolean or string is read as one."""
    if type(value) is not int:
        raise TypeError(f"{field} must be a JSON integer, got {value!r}")
    return value


def map_from_descriptor(d: dict) -> CircleLift:
    """Build a lift from its JSON descriptor."""
    if not isinstance(d, dict):
        raise TypeError("a map descriptor must be a JSON object")
    variant = d.get("variant")
    degree = json_int(d.get("degree", 1), "degree")
    if variant == "pl":
        return PLLift(degree, [(x, y) for x, y in d["breakpoints"]])
    if variant == "analytic":
        return AnalyticLift(d["alpha"], d.get("terms", ()), degree)
    raise ValueError(f"unknown map variant: {variant!r}")
