"""Deterministic random generators and hypothesis strategies for the suite."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import factorial
from pathlib import Path

from hypothesis import strategies as st

from soldyn import plkernel
from soldyn import (
    InducedHomeo,
    NotHomeomorphism,
    PLLift,
    PeriodicPL,
    SolenoidPoint,
    embed_degree,
    embed_int,
    induce,
    lp_build,
    pl_new,
)


def rand_fraction(rng: random.Random, den_max: int = 32) -> Fraction:
    """A rational in [0, 1) with denominator at most den_max."""
    den = rng.randint(1, den_max)
    return Fraction(rng.randrange(den), den)


def rand_tower(rng: random.Random, depth: int = 8):
    return embed_int(rng.randrange(factorial(depth)), depth)


def rand_point(rng: random.Random, depth: int = 8, den_max: int = 32) -> SolenoidPoint:
    return SolenoidPoint(rand_fraction(rng, den_max), rand_tower(rng, depth))


def rand_pl_lift(
    rng: random.Random, degree: int = 1, n_bps: int = 3, den: int = 8
) -> PLLift:
    """A random strictly increasing PL lift with small rational data.

    Gaps between consecutive values sum to strictly less than the degree,
    which is exactly the wrap-around monotonicity condition.
    """
    xs = [Fraction(i, den) for i in sorted(rng.sample(range(degree * den), n_bps))]
    gaps = [rng.randint(1, 9) for _ in range(n_bps - 1)]
    total = sum(gaps) + rng.randint(1, 9)
    y = Fraction(rng.randrange(den), den)
    ys = [y]
    for g in gaps:
        ys.append(ys[-1] + Fraction(g * degree, total))
    return pl_new(degree, list(zip(xs, ys)))


def grid_lift(rng: random.Random, degree: int, nb: int, den: int) -> PLLift:
    """A lift mapping grid points k/den to grid points, so that compositions
    put breakpoint preimages exactly on breakpoints."""
    xs = sorted(Fraction(k, den) for k in rng.sample(range(degree * den), nb))
    offs = sorted(rng.sample(range(degree * den), nb))
    y0 = Fraction(rng.randint(-3 * den, 3 * den), den)
    return pl_new(degree, [(x, y0 + Fraction(o, den)) for x, o in zip(xs, offs)])


def big_lift(rng: random.Random, degree: int, nb: int, bits: int) -> PLLift:
    """A lift whose breakpoints and values have denominators of about `bits`
    bits: nb distinct abscissae in [0, degree) and values rising by less
    than degree."""
    den = lambda: (1 << bits) + rng.randrange(1 << (bits - 8))
    xs = sorted({Fraction(rng.randrange(degree * (d := den())), d) for _ in range(nb)})
    ys = sorted({Fraction(rng.randrange(degree * (d := den())), d) for _ in range(len(xs))})
    if len(ys) < len(xs):
        xs = xs[: len(ys)]
    y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    return pl_new(degree, [(x, y0 + y) for x, y in zip(xs, ys)])


def degree1_scope(nb: int = 3, den: int = 6):
    """Every degree-1 lift with nb breakpoints on the 1/den grid, its first
    value in [0, 1) and its values spanning less than 1: 1,200 lifts for
    3 breakpoints on the 1/6 grid, 19,600 for 4 on the 1/8 grid."""
    for xs in combinations(range(den), nb):
        for y0 in range(den):
            for gaps in product(range(1, den), repeat=nb - 1):
                if sum(gaps) < den:
                    ys = accumulate(gaps, initial=y0)
                    yield pl_new(1, [(Fraction(x, den), Fraction(y, den)) for x, y in zip(xs, ys)])


def rand_induced(
    rng: random.Random, degree: int = 1, n_bps: int = 3, den: int = 8
) -> InducedHomeo:
    """Random induced map whose displacement genuinely has period `degree`."""
    return induce(rand_pl_lift(rng, degree, n_bps, den), rng.randint(-2, 2))


def rand_embedded(rng: random.Random, degree: int) -> InducedHomeo:
    """Random degree-1 map included at the given degree via the direct limit."""
    return embed_degree(rand_induced(rng, 1), degree)


def rand_lp(rng: random.Random, tower, zero_tail: bool = False):
    """A limit-periodic tower with signed summands on a grid of quarters,
    redrawn until lp_build accepts it; the tail bound is 0 or a small
    positive rational."""
    while True:
        summands = []
        for j, T in enumerate(tower):
            xs = sorted(Fraction(k, 4) for k in rng.sample(range(4 * T), 2 + rng.randrange(3)))
            vals = [Fraction(rng.randint(-5, 5), 2 * 4 ** (j + 1)) for _ in xs]
            summands.append(PeriodicPL(T, list(zip(xs, vals))))
        tail = 0 if zero_tail else Fraction(rng.randint(1, 5), 4 ** (len(tower) + 1))
        try:
            return lp_build(tower, summands, tail)
        except NotHomeomorphism:
            continue


# hypothesis strategies

small_fractions = st.builds(
    Fraction, st.integers(-64, 64), st.integers(1, 16)
)

unit_fractions = st.builds(
    lambda num, den: Fraction(num % den, den), st.integers(0, 1000), st.integers(1, 16)
)


def towers(depth: int = 5):
    return st.integers(0, factorial(depth) - 1).map(lambda t: embed_int(t, depth))


def run_python(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run the interpreter with `args` in a subprocess that imports soldyn
    from this checkout, capturing text output; raises TimeoutExpired once
    `timeout` seconds pass, so a run that would not end fails the test."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def count_compositions(monkeypatch) -> list:
    """Patch `plkernel.compose`, through which every PL composition and power
    runs, to append to the returned list on each call."""
    calls = []
    compose = plkernel.compose

    def counting(n, outer, inner):
        calls.append(1)
        return compose(n, outer, inner)

    monkeypatch.setattr(plkernel, "compose", counting)
    return calls
