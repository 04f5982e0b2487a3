"""Library smoke check for one interpreter, with no dependency past the stdlib.

Usage: python tests/interpreter_smoke.py

Imports soldyn from this checkout's src/ (no click, no pytest), checks
`plkernel.fraction`, which writes a Fraction's slots, and the exact-number
parser `circlemaps.exact_pair` against 3.10's `Fraction`, and hashes a fixed set of exact `rotation_report`, `apply` and `project`
outputs.  Exits 1 unless the hash is the pinned one, which CPython 3.11
gives, so a run under another interpreter shows that the outputs agree.
"""
import hashlib
import pickle
import random
import re
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from soldyn import (  # noqa: E402
    apply,
    circlemaps,
    divisors,
    embed_degree,
    embed_int,
    induce,
    pl_new,
    plkernel,
    project,
    rotation_report,
    SolenoidPoint,
)

PINNED = "d9a9183f3f9972001d4f0a4ad96a9276b33ea19afff4f3d90d8810af9851dc08"

# exact-number literals: the parser's own integer path (signs, zero, leading
# zeros, a pair past 1,000 bits, a zero denominator, a part past the digit
# limit) and forms it leaves to Fraction, whose answer, a value or an
# exception's type and message, is 3.10's on every interpreter ("1_000" is
# read from 3.11 on and "1 / 2" from 3.12 on, but the parser refuses both)
PARSER_CORPUS = [
    "0", "-0", "007/014", "-12/8", f"{-(3 ** 700)}/{2 ** 1100}", "1/0", "-5/0",
    "9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000,
    " 1/2", "+3", "1.5e-3", "1_000", "1_0/2", "\u0661\u0662", "1/-2", "1 / 2", "1/ 2",
    "1 /2", "x", "", "nan", ".5e3", "1e_5", "1e-5000", "1.5e4301",
]


def fraction_310(literal):
    """Fraction(literal) as CPython 3.10 reads it, on any interpreter: no
    underscores, and no whitespace next to "/"."""
    if "_" in literal or re.search(r"\s/|/\s", literal):
        raise ValueError(f"Invalid literal for Fraction: {literal!r}")
    return Fraction(literal)


def parse_outcome(parse, literal):
    """(numerator, denominator) of parse(literal), or the type and message of
    the ValueError or ZeroDivisionError it raises."""
    try:
        v = parse(literal)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return (v.numerator, v.denominator) if isinstance(v, Fraction) else v


def check_parser() -> None:
    for lit in PARSER_CORPUS:
        if sys.version_info[:2] == (3, 10) and parse_outcome(Fraction, lit) != parse_outcome(fraction_310, lit):
            raise SystemExit(f"fraction_310({lit[:20]!r}) differs from this Fraction({lit[:20]!r})")
        if parse_outcome(circlemaps.exact_pair, lit) != parse_outcome(fraction_310, lit):
            raise SystemExit(f"exact_pair({lit[:20]!r}) differs from 3.10's Fraction({lit[:20]!r})")
    for lit in ("1e100000000", "1e-100000000"):
        if parse_outcome(circlemaps.exact_pair, lit)[0] is not ValueError:
            raise SystemExit(f"exact_pair({lit!r}) is not refused")


def check_fraction(rng: random.Random) -> None:
    for bits in (4, 64, 1100):
        for _ in range(50):
            d = rng.randrange(1, 1 << bits)
            n = rng.randint(-(1 << bits), 1 << bits)
            g = gcd(n, d)
            n, d = n // g, d // g
            got, ref = plkernel.fraction(n, d), Fraction(n, d)
            same = (
                type(got) is Fraction
                and (got.numerator, got.denominator) == (ref.numerator, ref.denominator)
                and got == ref
                and hash(got) == hash(ref)
                and str(got) == str(ref)
                and got + Fraction(1, 3) == ref + Fraction(1, 3)
                and pickle.loads(pickle.dumps(got)) == ref
            )
            if not same:
                raise SystemExit(f"plkernel.fraction({n}, {d}) differs from Fraction({n}, {d})")


def outputs(rng: random.Random) -> list[str]:
    lines = []
    for q, alpha in ((40, Fraction(3, 7)), (200, Fraction(1, 997))):
        F = pl_new(1, [(0, alpha), (Fraction(1, 3), alpha + Fraction(2, 5)),
                       (Fraction(3, 4), alpha + Fraction(4, 5))])
        lines.append(str(rotation_report(F, q).to_report()))
    for n in (1, 2, 3, 6):
        xs = sorted(Fraction(k, 8) for k in rng.sample(range(8 * n), 3 * n))
        ys = sorted(Fraction(k, 9) for k in rng.sample(range(9 * n), 3 * n))
        f = induce(pl_new(n, list(zip(xs, ys))), rng.randint(-2, 2))
        lines.append(str(rotation_report(f, 30).to_report()))
        for g in (f, embed_degree(f, 2 * n)):
            for _ in range(6):
                x = Fraction(rng.randrange(31), 31)
                t = apply(g, SolenoidPoint(x, embed_int(rng.randrange(40320), 8)))
                lines.append(t.render())
                lines += [str(project(t, d).value) for d in divisors(g.degree)]
    return lines


def main() -> None:
    rng = random.Random(25)
    check_fraction(rng)
    check_parser()
    digest = hashlib.sha256("\n".join(outputs(rng)).encode()).hexdigest()
    print(f"{sys.version.split()[0]} {digest}")
    if digest != PINNED:
        raise SystemExit(f"output digest {digest} is not the pinned {PINNED}")


if __name__ == "__main__":
    main()
