import itertools
import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soldyn import (
    DepthExceeded,
    ProfiniteInt,
    SolenoidPoint,
    apply,
    canonicalize,
    cover_eval,
    embed_int,
    parse_profinite,
    pf_add,
    pf_dist,
    pf_neg,
)
from genutil import rand_induced, rand_tower, towers


def test_embed_examples():
    assert embed_int(0, 4).residues == (0, 0, 0, 0)
    assert embed_int(5, 4).residues == (0, 1, 5, 5)
    assert embed_int(-1, 3).residues == (0, 1, 5)


def test_residue_examples():
    assert embed_int(7, 4).residue(3) == 1
    for t in range(-10, 10):
        assert embed_int(t, 4).residue(1) == 0
    assert ProfiniteInt.from_residues((0, 1, 1, 7)).residue(4) == 3


def test_residue_requires_dividing_modulus():
    a = embed_int(3, 3)  # 3! = 6
    for n in (1, 2, 3, 6):
        assert a.residue(n) == 3 % n
    with pytest.raises(DepthExceeded):
        a.residue(4)
    with pytest.raises(DepthExceeded):
        a.residue(5)


def test_add_examples():
    assert pf_add(embed_int(3, 3), embed_int(4, 3)) == embed_int(7, 3)
    a = embed_int(13, 5)
    assert pf_add(a, pf_neg(a)) == embed_int(0, 5)
    assert pf_add(embed_int(1, 2), ProfiniteInt.from_residues((0, 1))).residues == (0, 0)


def test_mixed_depth_truncates():
    a = embed_int(3, 5)
    b = embed_int(4, 3)
    assert pf_add(a, b) == embed_int(7, 3)
    assert pf_add(a, b).depth == 3


def test_no_silent_extension():
    a = embed_int(3, 3)
    with pytest.raises(DepthExceeded):
        a.truncate(5)
    assert a.truncate(2) == embed_int(3, 2)


def test_invalid_towers_rejected():
    with pytest.raises(ValueError):
        ProfiniteInt.from_residues((1,))  # r_1 must be 0 mod 1!
    with pytest.raises(ValueError):
        ProfiniteInt.from_residues((0, 1, 2))  # 2 mod 2! != 1
    with pytest.raises(ValueError):
        ProfiniteInt.from_residues(())


def test_dist_examples():
    a = embed_int(17, 6)
    assert pf_dist(a, a) == 0
    # towers of 0 and 1 agree only at level 1 (both 0 mod 1!)
    assert pf_dist(embed_int(0, 3), embed_int(1, 3)) == Fraction(1, 4) + Fraction(1, 8)
    assert pf_dist(embed_int(0, 3), embed_int(6, 3)) == 0


def test_dist_is_ultrametric_exhaustive_depth3():
    pts = [embed_int(t, 3) for t in range(6)]
    for a, b, c in itertools.product(pts, repeat=3):
        assert pf_dist(a, c) <= max(pf_dist(a, b), pf_dist(b, c))


def test_group_laws_exhaustive_depth3():
    pts = [embed_int(t, 3) for t in range(6)]
    zero = embed_int(0, 3)
    assert len(set(p.residues for p in pts)) == 6
    for a, b, c in itertools.product(pts, repeat=3):
        assert pf_add(pf_add(a, b), c) == pf_add(a, pf_add(b, c))
    for a, b in itertools.product(pts, repeat=2):
        assert pf_add(a, b) == pf_add(b, a)
    for a in pts:
        assert pf_add(a, zero) == a
        assert pf_add(a, pf_neg(a)) == zero


@settings(deadline=None)
@given(towers(5), towers(5), towers(5))
def test_group_laws_random(a, b, c):
    zero = embed_int(0, 5)
    assert pf_add(pf_add(a, b), c) == pf_add(a, pf_add(b, c))
    assert pf_add(a, b) == pf_add(b, a)
    assert pf_add(a, zero) == a
    assert a - a == zero


@settings(deadline=None)
@given(towers(5), towers(5), st.sampled_from([1, 2, 3, 4, 6, 12, 24, 120]))
def test_residue_is_a_homomorphism(a, b, n):
    assert pf_add(a, b).residue(n) == (a.residue(n) + b.residue(n)) % n


def test_embed_injective_in_range():
    M = 4
    half = factorial(M) // 2
    seen = {}
    for t in range(-half + 1, half):
        r = embed_int(t, M).residues
        assert r not in seen, f"{t} collides with {seen.get(r)}"
        seen[r] = t


def test_embed_is_homomorphism():
    for s in range(-8, 9, 3):
        for t in range(-8, 9, 5):
            assert pf_add(embed_int(s, 4), embed_int(t, 4)) == embed_int(s + t, 4)


def test_render_parse_roundtrip():
    a = embed_int(-37, 6)
    assert a.render() == str(a)
    assert parse_profinite(a.render()) == a
    assert parse_profinite("(0, 1, 5, 5) @ depth 4") == embed_int(5, 4)
    with pytest.raises(ValueError):
        parse_profinite("(0, 1) @ depth 3")
    with pytest.raises(ValueError):
        parse_profinite("garbage")


def test_value_is_one_integer_mod_depth_factorial():
    import dataclasses

    assert [f.name for f in dataclasses.fields(ProfiniteInt)] == ["value", "depth"]
    a = embed_int(-37, 6)
    assert (a.value, a.depth) == (-37 % 720, 6)
    assert a.residues == tuple(-37 % factorial(m) for m in range(1, 7))
    assert ProfiniteInt.from_residues(a.residues) == a
    assert a.truncate(3) == ProfiniteInt(-37 % 6, 3)
    for value, depth in ((720, 6), (-1, 6), (0, 0), (0, -2)):
        with pytest.raises(ValueError):
            ProfiniteInt(value, depth)
    with pytest.raises(ValueError):
        ProfiniteInt.from_residues((0, 1, 7))  # 7 outside [0, 3!)


def test_level_walks_past_the_factorial_table():
    # depth 40 runs past the precomputed factorials: every level walk agrees
    # with the definition r_m = a mod m!
    a, b = embed_int(-10**40 - 7, 40), embed_int(3 * factorial(35) + 11, 40)
    for x in (a, b):
        assert x.residues == tuple(x.value % factorial(m) for m in range(1, 41))
        assert ProfiniteInt.from_residues(x.residues) == x
    diff = a.value - b.value
    assert pf_dist(a, b) == sum(
        Fraction(1, 2**m) for m in range(1, 41) if diff % factorial(m)
    )


def _same_as_checked(got, value, depth):
    # a value built without the constructor's check: equal to the checked
    # value of the independently computed residue, carrying its modulus
    assert type(got) is ProfiniteInt
    assert got == ProfiniteInt(value % factorial(depth), depth)
    assert got.modulus == factorial(depth)


@pytest.mark.parametrize("depth", [1, 8, 40])
def test_trusted_values_equal_checked_ones(depth):
    rng = random.Random(2400 + depth)
    M = factorial(depth)
    for _ in range(150):
        s, t = rng.randrange(-3 * M, 3 * M), rng.randrange(-3 * M, 3 * M)
        a, b = embed_int(s, depth), embed_int(t, depth)
        _same_as_checked(a, s, depth)
        _same_as_checked(pf_add(a, b), s + t, depth)
        _same_as_checked(pf_neg(a), -s, depth)
        d = rng.randint(1, depth)
        _same_as_checked(a.truncate(d), s, d)
        _same_as_checked(pf_add(a, embed_int(t, d)), s + t, d)
        # canonicalize's carry, exact and binary64
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 97))
        p = canonicalize(x, a)
        _same_as_checked(p.k, s + math.floor(x), depth)
        assert p.x == x - math.floor(x)
        y = rng.uniform(-50.0, 50.0)
        _same_as_checked(canonicalize(y, a).k, s + math.floor(y), depth)
        # apply's carry: degree 1 at depth 1, any degree up to 6 deeper
        f = rand_induced(rng, degree=1 if depth == 1 else rng.randint(1, 6))
        u = Fraction(rng.randrange(60), 60)
        image = cover_eval(f, u, a)
        q = apply(f, SolenoidPoint(u, a))
        _same_as_checked(q.k, s + math.floor(image), depth)
        assert q.x == image - math.floor(image)


def test_checked_values_carry_their_modulus():
    assert ProfiniteInt(5, 3).modulus == 6
    assert ProfiniteInt.from_residues((0, 1, 5)).modulus == 6
    assert parse_profinite("(0, 1, 5, 5) @ depth 4").modulus == 24
    assert embed_int(-1, 40).modulus == factorial(40)


def test_operators_match_functions_at_mixed_depths():
    # __add__, __neg__ and __sub__ are pf_add and pf_neg; a sum truncates to
    # the smaller depth
    rng = random.Random(2424)
    for _ in range(300):
        a = rand_tower(rng, rng.randint(1, 10))
        b = rand_tower(rng, rng.randint(1, 10))
        assert a + b == pf_add(a, b) == b + a
        assert (a + b).depth == min(a.depth, b.depth)
        assert -a == pf_neg(a) and (-a).depth == a.depth
        assert a - b == pf_add(a, pf_neg(b))
        assert (a - b) + b == a.truncate(min(a.depth, b.depth))
