"""Build the 4-level geometric tower and compare certified bounds with exact sup gaps.

Writes density.csv and density.svg next to the working directory.

Usage: python scripts/density_report.py
"""
from fractions import Fraction

from soldyn import PeriodicPL, lp_build
from soldyn.cli import density_table, density_text

TOWER = (1, 2, 6, 24)


def build():
    summands = [
        PeriodicPL(T, [(0, 0), (Fraction(T, 2), Fraction(1, 4**j))])
        for j, T in enumerate(TOWER, start=1)
    ]
    return lp_build(TOWER, summands, tail_bound=Fraction(1, 3 * 4 ** len(TOWER)))


def main():
    h = build()
    table = density_table(h)
    for j, bound, gap in zip(*table):
        print(f"level {j}: period {TOWER[j-1]:>2}  certified {str(bound):>8}  "
              f"sup gap {float(gap):.6f}")
    for fmt in ("csv", "svg"):
        with open(f"density.{fmt}", "w", encoding="utf-8", newline="") as fh:
            fh.write(density_text(h, *table, fmt))
    print("wrote density.csv, density.svg")


if __name__ == "__main__":
    main()
