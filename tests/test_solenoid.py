import copy
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldyn import (
    CirclePointModN,
    DepthExceeded,
    ProfiniteInt,
    SolenoidPoint,
    canonicalize,
    deck,
    embed_int,
    parse_point,
    project,
    sigma,
    sol_add,
    sol_dist,
    sol_neg,
    zero_point,
)
from genutil import rand_point, rand_tower, towers, unit_fractions


def test_integer_coordinates_enter_as_fractions():
    # an int coordinate is read as the Fraction it stands for, at the checked
    # constructors and at canonicalize, which carries its integer part into k
    k = embed_int(5, 4)
    s = SolenoidPoint(0, k)
    assert type(s.x) is Fraction and s == SolenoidPoint(Fraction(0), k)
    for t in (-3, 0, 7):
        c = canonicalize(t, k)
        assert type(c.x) is Fraction and c == SolenoidPoint(Fraction(0), embed_int(5 + t, 4))
    assert type(sigma(2).x) is Fraction
    c = CirclePointModN(3, 2)
    assert type(c.value) is Fraction and c == CirclePointModN(3, Fraction(2))


def test_canonicalize_examples():
    z = embed_int(0, 3)
    assert canonicalize(Fraction(1, 4), z) == SolenoidPoint(Fraction(1, 4), z)
    assert canonicalize(Fraction(5, 4), z) == SolenoidPoint(
        Fraction(1, 4), embed_int(1, 3)
    )
    assert canonicalize(Fraction(-1, 2), z) == SolenoidPoint(
        Fraction(1, 2), embed_int(-1, 3)
    )


def test_canonical_range_enforced():
    with pytest.raises(ValueError):
        SolenoidPoint(Fraction(3, 2), embed_int(0, 3))
    with pytest.raises(ValueError):
        SolenoidPoint(Fraction(-1, 2), embed_int(0, 3))


def test_sigma_examples():
    assert sigma(0) == zero_point()
    assert sigma(1) == SolenoidPoint(Fraction(0), embed_int(1, 8))
    assert sigma(Fraction(7, 2)) == SolenoidPoint(Fraction(1, 2), embed_int(3, 8))


def test_sol_add_examples():
    s = rand_point(random.Random(3))
    assert sol_add(s, zero_point()) == s
    half = SolenoidPoint(Fraction(1, 2), embed_int(0, 8))
    assert sol_add(half, half) == SolenoidPoint(Fraction(0), embed_int(1, 8))
    a = SolenoidPoint(Fraction(1, 3), embed_int(2, 8))
    b = SolenoidPoint(Fraction(2, 3), embed_int(-2, 8))
    assert sol_add(a, b) == SolenoidPoint(Fraction(0), embed_int(1, 8))


@settings(deadline=None)
@given(unit_fractions, unit_fractions)
def test_sigma_is_homomorphism(t, u):
    assert sigma(t + u, 5) == sol_add(sigma(t, 5), sigma(u, 5))


def test_project_examples():
    for t in [Fraction(7, 3), Fraction(-5, 4), Fraction(11, 2)]:
        assert project(sigma(t), 1).value == t % 1
    s = SolenoidPoint(Fraction(1, 2), embed_int(3, 8))
    assert project(s, 2).value == Fraction(3, 2)


def test_project_depth_guard():
    s = SolenoidPoint(Fraction(0), embed_int(0, 3))
    with pytest.raises(DepthExceeded):
        project(s, 4)


def test_project_is_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        s, t = rand_point(rng), rand_point(rng)
        for n in (1, 2, 3, 6, 24):
            lhs = project(sol_add(s, t), n).value
            rhs = (project(s, n).value + project(t, n).value) % n
            assert lhs == rhs


def test_deck_examples():
    z = embed_int(0, 4)
    assert deck((Fraction(0), z), 0) == (Fraction(0), z)
    p = (Fraction(2, 7), embed_int(5, 4))
    assert deck(deck(p, 1), -1) == p


def test_deck_preserves_class():
    rng = random.Random(5)
    for _ in range(50):
        s = rand_point(rng)
        t = rng.randint(-30, 30)
        moved = deck((s.x, s.k), t)
        assert canonicalize(*moved) == s


def test_deck_invariance_of_projection():
    rng = random.Random(6)
    for _ in range(50):
        s = rand_point(rng)
        t = rng.randint(-10, 10)
        moved = canonicalize(*deck((s.x, s.k), t))
        for n in (1, 2, 6):
            assert project(moved, n) == project(s, n)


def test_sol_dist_closed_forms():
    M = 8
    z = zero_point(M)
    s = sol_dist(z, sigma(Fraction(1, 2), M))
    assert s == Fraction(1, 2) * (1 - Fraction(1, 2**M))
    for eps in (Fraction(1, 5), Fraction(3, 7), Fraction(1, 100)):
        assert sol_dist(z, sigma(eps, M)) == eps * (1 - Fraction(1, 2**M))
    assert sol_dist(z, z) == 0


def test_sol_dist_metric_laws():
    rng = random.Random(9)
    pts = [rand_point(rng, depth=5) for _ in range(12)]
    for a in pts:
        assert sol_dist(a, a) == 0
        for b in pts:
            assert sol_dist(a, b) == sol_dist(b, a)
            if a != b:
                assert sol_dist(a, b) > 0
            for c in pts[:4]:
                assert sol_dist(a, c) <= sol_dist(a, b) + sol_dist(b, c)


def test_sol_dist_translation_invariant():
    rng = random.Random(10)
    for _ in range(30):
        a, b, c = rand_point(rng, 5), rand_point(rng, 5), rand_point(rng, 5)
        assert sol_dist(sol_add(a, c), sol_add(b, c)) == sol_dist(a, b)


@settings(deadline=None)
@given(unit_fractions, towers(5))
def test_group_inverse(x, k):
    s = SolenoidPoint(x, k)
    assert sol_add(s, sol_neg(s)) == zero_point(5)


def test_density_of_base_leaf_at_truncation():
    # constructive witness: t = x + k.residue(m!) hits the same level-m! class
    rng = random.Random(12)
    for _ in range(40):
        s = rand_point(rng)
        for m in range(1, s.depth + 1):
            n = factorial(m)
            t = s.x + s.k.residue(n)
            assert project(sigma(t, s.depth), n) == project(s, n)


def test_point_literal_roundtrip():
    s = SolenoidPoint(Fraction(1, 4), embed_int(5, 4))
    assert s.render() == "x=1/4; k=(0, 1, 5, 5)"
    assert parse_point(s.render()) == s
    assert parse_point("x=0; k=(0, 1)") == SolenoidPoint(Fraction(0), embed_int(1, 2))
    with pytest.raises(ValueError):
        parse_point("nope")


def test_canonicalize_binary64_roundoff_through_apply():
    from soldyn import analytic_new, apply, induce

    # -1e-17 - floor(-1e-17) rounds to 1.0; the unit carries into k instead
    s = apply(induce(analytic_new(-1e-17)), sigma(0.0))
    assert s == SolenoidPoint(0.0, embed_int(0, 8))
    k = embed_int(5, 4)
    assert canonicalize(-1e-17, k) == SolenoidPoint(0.0, k)
    assert canonicalize(-5e-324, k) == SolenoidPoint(0.0, k)
    assert canonicalize(-0.25, k) == SolenoidPoint(0.75, embed_int(4, 4))


def test_sol_dist_matches_projection_reference():
    # reference: the metric written through project(), for exact and binary64
    def reference(s, t):
        total = 0
        for m in range(1, min(s.depth, t.depth) + 1):
            n = factorial(m)
            d = (project(s, n).value - project(t, n).value) % n
            arc = min(d, n - d)
            if arc:
                total = total + arc * Fraction(1, 2**m)
        return Fraction(total) if isinstance(total, int) else total

    rng = random.Random(13)
    for i in range(60):
        s, t = rand_point(rng, 6), rand_point(rng, 8)
        assert sol_dist(s, t) == reference(s, t)
        # mixed depths, denominators up to 10^30, in either order
        big = [rand_point(rng, rng.randint(1, 10), 10 ** rng.randint(1, 30)) for _ in range(2)]
        big.append(SolenoidPoint(big[0].x, rand_tower(rng, rng.randint(1, 10))))
        for a, b in ((big[0], big[1]), (big[1], big[0]), (big[0], big[2]), (big[2], s), (t, t)):
            got, want = sol_dist(a, b), reference(a, b)
            assert type(got) is type(want) is Fraction and got == want
        fs = SolenoidPoint(float(s.x) + rng.random() * 1e-3, s.k)
        ft = SolenoidPoint(rng.random(), t.k)
        for a, b in ((fs, ft), (fs, t), (s, ft)):
            got, want = sol_dist(a, b), reference(a, b)
            assert type(got) is type(want) and got == want


def test_values_copy_and_pickle_through_the_checked_constructors():
    # trusted and checked values alike: copies equal the original, carry the
    # modulus, and are rebuilt by the checked constructor
    k = embed_int(-37, 6)
    s = canonicalize(Fraction(7, 3), k)
    c = project(s, 4)
    for v in (k, ProfiniteInt(5, 3), s, SolenoidPoint(Fraction(1, 2), k), c, CirclePointModN(3, 2)):
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(twin) is type(v) and twin == v and hash(twin) == hash(v)
    assert pickle.loads(pickle.dumps(k)).modulus == 720
    # a value that skipped the check out of range is refused when copied
    with pytest.raises(ValueError):
        copy.copy(ProfiniteInt._trusted(720, 6, 720))
