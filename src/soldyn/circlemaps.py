"""Monotone lifts of circle homeomorphisms of R/nZ, and periodic displacements.

Two representations of a lift are provided.  Piecewise-linear lifts carry
exact rational breakpoint data and support exact composition, inversion and
iteration; every certification claim in this package is made through them.
The analytic family is binary64-only and exists for exploration.

Exact input is read by one parser, `exact_pair`, to reduced integer pairs.
A PL lift is its degree, one integer table of the numerators and
denominators of its breakpoints, values and slopes (`plkernel`), checked on
those pairs once when the lift is built from breakpoints, and its pieces'
affine forms, derived then.  Exact evaluation bisects the table by
cross-multiplication and evaluates one form; composition, powers, inverses
and translates build only tables.  A binary64 input is located on the table
exactly and evaluated in floating point, each coordinate rounded once.
`xs`, `ys` and `slopes` build Fractions from the table on each read.  A
`PeriodicPL` delta is its integer period and the table of x + delta(x).
Every exact entry point of the package refuses an analytic lift through
`_pl`.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from . import plkernel
from .errors import (
    AnalyticExactUnsupported,
    DegreeMismatch,
    EmptyBreakpoints,
    NotMonotone,
)


# strings read without Fraction: an integer or a ratio of two, in ASCII digits
_PAIR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_NOT_310 = re.compile(r"_|\s/|/\s")  # read by Fraction only from 3.11 on
# Fraction's decimal form with an exponent, which can need far more digits than its text
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)\d*(?:\.\d*)?[eE]([-+]?\d+)\s*")


def exact_pair(v) -> tuple[int, int]:
    """The one parser of exact input: an int, Fraction or string as a reduced
    (numerator, denominator), denominator > 0.  A string `-?[0-9]+(/[0-9]+)?`
    is read by `int()` and one gcd, raising what `Fraction` would; `_NOT_310`
    strings are refused as 3.10 does; others go to `Fraction`, unless an
    exponent gives more digits than twice the digit limit (the most "p/q"
    has).  Floats and booleans (JSON `true` would read as 1) are refused."""
    if type(v) is int:
        return v, 1
    if isinstance(v, str):
        m = _PAIR.fullmatch(v)
        if m:
            n, d = int(m[1]), int(m[2] or 1)
            if not d:
                raise ZeroDivisionError(f"Fraction({n}, 0)")
            g = math.gcd(n, d)
            return n // g, d // g
        if _NOT_310.search(v):
            raise ValueError(f"Invalid literal for Fraction: {v!r}")
        limit = 2 * sys.get_int_max_str_digits()
        m = limit and _EXPONENT.fullmatch(v)
        if m and len(v) + abs(int(m[1])) > limit:
            raise ValueError(f"number literal past the digit limit: its exact value "
                             f"would need more than {limit} digits")
    elif isinstance(v, (float, bool)):
        raise TypeError(f"exact PL data requires int/Fraction/str, not {type(v).__name__}")
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return v.numerator, v.denominator


def as_rational(v) -> Fraction:
    """`exact_pair` as a Fraction."""
    return plkernel.fraction(*exact_pair(v))


def _columns(breakpoints, empty: str) -> list:
    """The columns (x_n, x_d, y_n, y_d) of the breakpoints' reduced pairs, in
    the order of their (x, y) values: sorted only when the abscissae, compared
    by cross-multiplication, do not increase.  EmptyBreakpoints(`empty`) if
    there are none."""
    rows = [(*exact_pair(x), *exact_pair(y)) for x, y in breakpoints]
    if not rows:
        raise EmptyBreakpoints(empty)
    if any(a * d >= c * b for (a, b, _, _), (c, d, _, _) in zip(rows, rows[1:])):
        rows.sort(key=lambda r: (plkernel.fraction(*r[:2]), plkernel.fraction(*r[2:])))
    return list(map(list, zip(*rows)))


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
        xn, xd, yn, yd = _columns(breakpoints, "a PL lift needs at least one breakpoint")
        if xn[0] < 0 or xn[-1] >= degree * xd[-1]:
            raise ValueError(f"breakpoint abscissae must lie in [0, {degree})")
        for i in range(len(xn) - 1):
            if xn[i] == xn[i + 1] and xd[i] == xd[i + 1]:
                raise NotMonotone(f"duplicate breakpoint at x={plkernel.fraction(xn[i], xd[i])}")
            if yn[i] * yd[i + 1] >= yn[i + 1] * yd[i]:
                x0, x1 = _fractions(xn[i:i + 2], xd[i:i + 2])
                raise NotMonotone(f"values must increase: y({x0}) >= y({x1})")
        if yn[-1] * yd[0] >= (yn[0] + degree * yd[0]) * yd[-1]:
            raise NotMonotone("wrap-around violates strict monotonicity")
        self.degree = degree
        self._table = (xn, xd, yn, yd, *plkernel.slopes(xn, xd, yn, yd, degree))
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
        j = math.floor(x / n)
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

    def power(self, q: int) -> "PLLift":
        """Materialize F^q as a PL lift (exponentiation by squaring on
        integer tables), within `plkernel.BREAKPOINT_CAP`."""
        if q < 0:
            return self.inverse().power(-q)
        return PLLift._from_table(self.degree, plkernel.power(self.degree, self._table, q))

    def translate(self, c) -> "PLLift":
        """The lift F + c; F itself when c = 0, as lifts are immutable."""
        cn, cd = exact_pair(c)
        if not cn:
            return self
        return PLLift._from_table(self.degree, plkernel.translate(self._table, cn, cd))

    def shift_input(self, r) -> "PLLift":
        """Conjugation by translation: x -> F(x + r) - r."""
        table = plkernel.shift_input(self.degree, self._table, *exact_pair(r))
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
        """x -> F(x) - x: the lift's own table, read at period degree."""
        return PeriodicPL._trusted(self.degree, self._table)

    def to_descriptor(self) -> dict:
        return {
            "degree": self.degree,
            "variant": "pl",
            "breakpoints": [[str(x), str(y)] for x, y in zip(self.xs, self.ys)],
        }


def _pl(F, message: str) -> PLLift:
    """F itself if it is a PL lift, else AnalyticExactUnsupported(message):
    the one refusal of an analytic lift by an exact entry point."""
    if not isinstance(F, PLLift):
        raise AnalyticExactUnsupported(message)
    return F


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
    """Continuous PL function delta of integer period T: T and the `plkernel`
    table of G = id + delta, periodic like a degree-T lift but not necessarily
    increasing, with no forms.  `xs`, `vs` (y - x) and `slopes` (s - 1) are
    read-only views that build a fresh tuple of Fractions on every read."""

    __slots__ = ("period", "_table")

    def __init__(self, period, breakpoints) -> None:
        pn, pd = exact_pair(period)
        if pn <= 0:
            raise ValueError("period must be positive")
        if pd != 1:
            raise ValueError(f"period {pn}/{pd} is not an integer")
        xn, xd, vn, vd = _columns(breakpoints, "a periodic PL function needs a breakpoint")
        if xn[0] < 0 or xn[-1] >= pn * xd[-1]:
            raise ValueError(f"breakpoint abscissae must lie in [0, {pn})")
        for i in range(len(xn) - 1):
            if xn[i] == xn[i + 1] and xd[i] == xd[i + 1]:
                raise ValueError(f"duplicate breakpoint at x={plkernel.fraction(xn[i], xd[i])}")
        yn, yd = map(list, zip(*map(plkernel.add, xn, xd, vn, vd)))
        self.period = pn
        self._table = (xn, xd, yn, yd, *plkernel.slopes(xn, xd, yn, yd, pn))

    @classmethod
    def _trusted(cls, period: int, table) -> "PeriodicPL":
        """The function of a valid table of id + delta at integer `period`, unchecked."""
        d = cls.__new__(cls)
        d.period, d._table = period, table
        return d

    @property
    def xs(self) -> tuple:
        return _fractions(self._table[0], self._table[1])

    @property
    def vs(self) -> tuple:
        xn, xd, yn, yd = self._table[:4]
        return tuple([plkernel.fraction(*plkernel.add(c, d, -a, b))
                      for a, b, c, d in zip(xn, xd, yn, yd)])

    @property
    def slopes(self) -> tuple:
        sn, sd = self._table[4], self._table[5]
        return _fractions([a - b for a, b in zip(sn, sd)], sd)

    def eval(self, x):
        """delta(x): exact for int and Fraction x, binary64 for a float x."""
        T, table = self.period, self._table
        xn, xd, yn, yd, sn, sd = table
        if isinstance(x, (int, Fraction)):
            a, b = x.numerator, x.denominator
            a -= a // (b * T) * T * b
            gn, gd = plkernel.piece_value(table, plkernel.locate(xn, xd, a, b) - 1, T, a, b, 0)
            return plkernel.fraction(*plkernel.add(gn, gd, -a, b))
        j = math.floor(x / T)
        x0 = x - j * T if j else x
        # the piece is located exactly; each coordinate is rounded once, as
        # float(Fraction) rounds it
        i = plkernel.locate(xn, xd, *x0.as_integer_ratio()) - 1
        x1 = (xn[i] - T * xd[i]) / xd[i] if i < 0 else xn[i] / xd[i]
        v1 = (yn[i] * xd[i] - xn[i] * yd[i]) / (yd[i] * xd[i])
        return v1 + (x0 - x1) * ((sn[i] - sd[i]) / sd[i])

    __call__ = eval

    def sup_norm(self) -> Fraction:
        """Exact sup |delta|: PL extrema occur at breakpoints, where |y - x| is
        compared on integer pairs by cross-multiplication."""
        xn, xd, yn, yd = self._table[:4]
        top_n, top_d = 0, 1
        for a, b, c, d in zip(xn, xd, yn, yd):
            t, e = abs(c * b - a * d), d * b
            if t * top_d > top_n * e:
                top_n, top_d = t, e
        return Fraction(top_n, top_d)

    def translate(self, t) -> "PeriodicPL":
        """The translate delta^t(x) = delta(x + t)."""
        T = self.period
        return PeriodicPL._trusted(T, plkernel.shift_input(T, self._table, *exact_pair(t)))

    def canonical_breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The (x, delta(x)) where the slope actually changes; () for a constant."""
        xs, vs = self.xs, self.vs
        return tuple((xs[i], vs[i]) for i in plkernel.slope_changes(self._table))

    def _key(self) -> tuple:
        """What fixes the function: its period and slope changes, or a constant's value."""
        return self.period, self.canonical_breakpoints() or self.vs[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicPL):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {v})" for x, v in zip(self.xs, self.vs))
        return f"PeriodicPL(period={self.period}, [{pts}])"


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
    """The least period of delta dividing its stored period, by
    `plkernel.least_period` on its table, which never factors that period."""
    return plkernel.least_period(delta.period, delta._table)[0]


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
