"""Build the 4-level geometric tower and compare certified vs measured gaps.

Writes density.csv and density.svg next to the working directory.

Usage: python scripts/density_report.py [grid_size]
"""
import sys
from fractions import Fraction

from soldyn import PeriodicPL, lp_build
from soldyn.cli import _csv_text, _svg_chart

TOWER = (1, 2, 6, 24)


def build():
    summands = [
        PeriodicPL(T, [(0, 0), (Fraction(T, 2), Fraction(1, 4**j))])
        for j, T in enumerate(TOWER, start=1)
    ]
    return lp_build(TOWER, summands, tail_bound=Fraction(1, 3 * 4 ** len(TOWER)))


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    h = build()
    gaps = h.sampled_gaps(Fraction(i * TOWER[-1], n) for i in range(n))
    rows, bounds = [], []
    for j, gap in enumerate(gaps, start=1):
        bound = h.tail_from(j)
        rows.append([str(j), str(TOWER[j - 1]), str(bound), str(gap)])
        bounds.append(float(bound))
        print(f"level {j}: period {TOWER[j-1]:>2}  certified {str(bound):>8}  "
              f"measured {float(gap):.6f}")
    with open("density.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(["level", "period", "certified_bound", "measured_sup_gap"], rows))
    with open("density.svg", "w", encoding="utf-8", newline="") as fh:
        fh.write(_svg_chart(
            "certified bound vs measured gap",
            [float(j) for j in range(1, h.levels + 1)],
            [("certified bound", bounds), ("measured gap", [float(g) for g in gaps])],
        ))
    print("wrote density.csv, density.svg")


if __name__ == "__main__":
    main()
