"""Sweep enclosure widths for a few lifts and show when certification kicks in.

Usage: python scripts/rotation_sweep.py [q_max]
"""
import sys
from fractions import Fraction

from soldyn import (
    BreakpointCapExceeded,
    analytic_new,
    enclosure_sequence,
    pl_new,
    rotation_lift,
    rotation_report,
    translation_enclosure,
)


def sweep(name, F, q_max):
    print(f"== {name}")
    encs = list(enclosure_sequence(F, q_max))
    for q in sorted({1, 2, 5, 10, q_max // 2, q_max}):
        e = encs[q - 1]
        print(f"  q={q:>6}  [{e.lo}, {e.hi}]  width={float(e.width):.3e}")
    bound = min(q_max, 64)
    try:
        rep = rotation_report(F, q_max, max_cert_den=bound)
    except BreakpointCapExceeded:
        rep = None
    if rep is not None and rep.exact is not None:
        print(f"  certified rational: {rep.exact} with witness x*={rep.witness}")
    else:
        print(f"  no rational with denominator <= {bound} certifies")


def main():
    q_max = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    sweep("rigid rotation by 3/5", rotation_lift(Fraction(3, 5)), q_max)
    sweep(
        "half-shift PL map",
        pl_new(1, [(0, Fraction(1, 2)), (Fraction(1, 2), 1)]),
        q_max,
    )
    golden = analytic_new((5**0.5 - 1) / 2)
    print("== golden-mean analytic rotation (binary64)")
    e = translation_enclosure(golden, q_max)
    print(f"  q={q_max}  [{float(e.lo):.12f}, {float(e.hi):.12f}]")
    print("  (analytic lifts never certify; enclosure only)")


if __name__ == "__main__":
    main()
