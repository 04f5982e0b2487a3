"""Exact arithmetic in a depth-M truncation of the profinite integers.

A depth-M value is the class of an integer a mod M!, stored as the one
integer value = a mod M! in [0, M!).  The factorial moduli are cofinal in
the divisibility order, so it determines the class of a mod every n dividing
M!; the residues r_m = a mod m!, m = 1..M, are derived from it, each walk
over the levels building m! as (m - 1)! m within the call.  All
arithmetic is exact (arbitrary-precision integers) and values are immutable.

Input is checked once, where it enters: `ProfiniteInt(value, depth)` and
`ProfiniteInt.from_residues` refuse a value or tower out of range, and
`embed_int` a depth below 1.  Each value stores its modulus depth!, derived
once at construction.  Values the library derives from integers it has
already reduced mod depth! (`embed_int`, `pf_add`, `pf_neg`, `truncate`, and
the carries of `solenoid.canonicalize` and `induced.apply`) are built by
`ProfiniteInt._trusted` and not checked again.  `residue` still raises
DepthExceeded for a modulus that does not divide depth!.  Values keep their
attributes in slots; a copied or unpickled value is rebuilt by the checked
constructor.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DepthExceeded

DEFAULT_DEPTH = 8

_FACT = tuple(factorial(m) for m in range(33))


def _fact(m: int) -> int:
    return _FACT[m] if m < 33 else factorial(m)


@dataclass(frozen=True)
class ProfiniteInt:
    """The class of an integer mod depth!, stored as its representative
    value in [0, depth!); residues are derived from it.  The modulus depth!
    is a slot but not a field: equality and hashing read (value, depth)."""

    __slots__ = ("value", "depth", "modulus")
    value: int
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1 or not 0 <= self.value < (modulus := _fact(self.depth)):
            raise ValueError(f"value {self.value} outside [0, depth!) at depth {self.depth}")
        _set_modulus(self, modulus)

    @classmethod
    def _trusted(cls, value: int, depth: int, modulus: int) -> "ProfiniteInt":
        """The value from a depth >= 1, modulus = depth! and a value already
        known to lie in [0, modulus).  The slots are set through their
        descriptors, past the frozen dataclass's __setattr__."""
        p = _new(cls)
        _set_value(p, value)
        _set_depth(p, depth)
        _set_modulus(p, modulus)
        return p

    def __reduce__(self):
        # copies and unpickled values go through the checked constructor
        return type(self), (self.value, self.depth)

    @classmethod
    def from_residues(cls, residues) -> "ProfiniteInt":
        """The value with residue tower (r_1, ..., r_M), r_m its class mod m!.

        Checks every level: each residue in range and compatible with the
        level below.
        """
        residues = tuple(int(r) for r in residues)
        if not residues:
            raise ValueError("residue tower must have depth >= 1")
        prev = 0
        prev_mod = mod = 1
        for m, r in enumerate(residues, start=1):
            mod *= m
            if not 0 <= r < mod:
                raise ValueError(f"residue {r} outside [0, {mod}) at level {m}")
            if r % prev_mod != prev:
                raise ValueError(f"incompatible residues at levels {m - 1}, {m}")
            prev, prev_mod = r, mod
        return cls(residues[-1], len(residues))

    @property
    def residues(self) -> tuple[int, ...]:
        out, mod = [], 1
        for m in range(1, self.depth + 1):
            mod *= m
            out.append(self.value % mod)
        return tuple(out)

    def truncate(self, depth: int) -> "ProfiniteInt":
        # No silent extension: a truncation does not determine deeper levels.
        if depth < 1 or depth > self.depth:
            raise DepthExceeded(f"cannot truncate depth {self.depth} to {depth}")
        if depth == self.depth:
            return self
        modulus = _fact(depth)
        return ProfiniteInt._trusted(self.value % modulus, depth, modulus)

    def residue(self, n: int) -> int:
        """Class mod n for any modulus n dividing depth!."""
        if n < 1:
            raise ValueError("modulus must be positive")
        if self.modulus % n:
            raise DepthExceeded(f"modulus {n} does not divide {self.depth}!")
        return self.value % n

    def __add__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        return pf_add(self, other)

    def __neg__(self) -> "ProfiniteInt":
        return pf_neg(self)

    def __sub__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        return pf_add(self, pf_neg(other))

    def render(self) -> str:
        inner = ", ".join(str(r) for r in self.residues)
        return f"({inner}) @ depth {self.depth}"

    def __str__(self) -> str:
        return self.render()


_new = object.__new__
_set_value = ProfiniteInt.value.__set__
_set_depth = ProfiniteInt.depth.__set__
_set_modulus = ProfiniteInt.modulus.__set__


def embed_int(t: int, depth: int = DEFAULT_DEPTH) -> ProfiniteInt:
    """Dense inclusion of the integers: t maps to its class mod depth!."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    modulus = _fact(depth)
    return ProfiniteInt._trusted(int(t) % modulus, depth, modulus)


def pf_add(a: ProfiniteInt, b: ProfiniteInt) -> ProfiniteInt:
    """Modular addition; mixed depths truncate to the smaller."""
    m = a if a.depth <= b.depth else b
    return ProfiniteInt._trusted((a.value + b.value) % m.modulus, m.depth, m.modulus)


def pf_neg(a: ProfiniteInt) -> ProfiniteInt:
    return ProfiniteInt._trusted(-a.value % a.modulus, a.depth, a.modulus)


def pf_dist(a: ProfiniteInt, b: ProfiniteInt) -> Fraction:
    """Indicator metric sum_m 2^-m [r_m(a) != r_m(b)]; an ultrametric on towers."""
    diff = a.value - b.value
    total, mod = Fraction(0), 1
    for m in range(1, min(a.depth, b.depth) + 1):
        mod *= m
        if diff % mod:
            total += Fraction(1, 2**m)
    return total


_TOWER_RE = re.compile(
    r"^\s*\(\s*(?P<body>[-0-9,\s]*?)\s*\)\s*@\s*depth\s+(?P<depth>\d+)\s*$"
)


def parse_profinite(text: str) -> ProfiniteInt:
    """Inverse of ProfiniteInt.render, e.g. "(0, 1, 5) @ depth 3"."""
    m = _TOWER_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse residue tower: {text!r}")
    parts = [p.strip() for p in m.group("body").split(",") if p.strip()]
    residues = tuple(int(p) for p in parts)
    if len(residues) != int(m.group("depth")):
        raise ValueError("declared depth does not match residue count")
    return ProfiniteInt.from_residues(residues)
