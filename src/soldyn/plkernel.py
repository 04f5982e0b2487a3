"""Integer kernel of the piecewise-linear lifts in `circlemaps`.

A degree-n lift's table is the 6-tuple (xn, xd, yn, yd, sn, sd) of integer
sequences: numerators and positive denominators of its breakpoint abscissae
(sorted, in [0, n)), its values (strictly increasing, spanning less than n)
and its slopes, every pair reduced.  Slope i is that of the piece starting at
breakpoint i; the last piece wraps to the first breakpoint plus n.

No Fraction is built on tables.  `walk` visits the breakpoints of a product
outer o inner in increasing x without building it: `compose` keeps it, and
`first_return` scans it, or a built table's `rows`, for the first zero of
G - id - p; `last_pairs` builds a power up to its last composition.
`eval_pair` evaluates a point by its piece's affine form (`forms`).  Fractions
leave only through `fraction`, from reduced pairs.  A `PeriodicPL` delta of
integer period T is the table of x + delta(x), periodic like a degree-T lift
but with values that need not increase, as `walk` and `wrap_cut` need them
to: `slopes`, `locate`, `piece_value`, `shift_input` and the period search
(`slope_changes`, `descend`, `least_period`) only compare, copy and add
pairs, so they take it too.  Pairs are reduced in the order `fractions`
uses, gcd of the denominators first, so `add`, `mul` and `walk` take no gcd
of a product of coordinates; `eval_pair` takes one.

`BREAKPOINT_CAP` is the one bound on breakpoint counts: every size check,
here and in `dynamics` and `induced`, calls `check_cap`, which reads it when
called, so setting it here sets it at every site.

This module is internal; `PLLift` is the public face of a table.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import partial, reduce
from itertools import chain
from math import gcd

from .errors import BreakpointCapExceeded

IDENTITY = ((0,), (1,), (0,), (1,), (1,), (1,))

# Most breakpoints a checked count may reach: a table, a pair of tables about
# to be composed, or an operand of a sum over one period.
BREAKPOINT_CAP = 10**6

_new = object.__new__


def fraction(n: int, d: int) -> Fraction:
    """`Fraction(n, d)` for a reduced pair with d > 0, without its gcd: the
    one writer of a Fraction's slots (CPython 3.10 to 3.13 have these two),
    as 3.12's `Fraction._from_coprime_ints` is."""
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def check_cap(count: int, message: str) -> None:
    """BreakpointCapExceeded when count passes BREAKPOINT_CAP, read now; the
    message is `message` with the cap put in for "{cap}"."""
    if count > BREAKPOINT_CAP:
        raise BreakpointCapExceeded(message.format(cap=BREAKPOINT_CAP))


def add(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """na/da + nb/db as a reduced pair."""
    g = gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def mul(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """na/da * nb/db as a reduced pair; divide by a positive nb/db as * db/nb."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return na * nb, da * db


def slopes(xn, xd, yn, yd, n: int) -> tuple[list, list]:
    """The slope of the piece from each breakpoint as (numerators,
    denominators), for sorted distinct abscissae in lists: the last piece
    ends at the first breakpoint plus (n, n)."""
    ends = zip(xn[1:] + [xn[0] + n * xd[0]], xd[1:] + xd[:1],
               yn[1:] + [yn[0] + n * yd[0]], yd[1:] + yd[:1])
    pairs = [mul(*add(en, ed, -cn, cd), *add(bn, bd, -an, ad)[::-1])
             for an, ad, cn, cd, (bn, bd, en, ed) in zip(xn, xd, yn, yd, ends)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def shift(nums, dens, cn: int, cd: int) -> tuple:
    """Each nums[i]/dens[i] plus cn/cd, as (numerators, denominators)."""
    if cd == 1:
        return [a + cn * b for a, b in zip(nums, dens)], dens
    out_n, out_d = [], []
    for a, b in zip(nums, dens):
        a, b = add(a, b, cn, cd)
        out_n.append(a)
        out_d.append(b)
    return out_n, out_d


def translate(table, cn: int, cd: int) -> tuple:
    """The table of F + c for c = cn/cd, cd > 0; the other columns are shared."""
    xn, xd, yn, yd, sn, sd = table
    return (xn, xd, *shift(yn, yd, cn, cd), sn, sd)


def shift_input(n: int, table, cn: int, cd: int) -> tuple:
    """The table of x -> F(x + c) - c for c = cn/cd, cd > 0."""
    xn, xd, yn, yd, sn, sd = table
    xn, xd = shift(xn, xd, -cn, cd)
    yn, yd = shift(yn, yd, -cn, cd)
    # the shifted abscissae span less than n, so reducing them mod n rotates the list
    j, cut = wrap_cut(xn, xd, n)
    xn, xd = reduce_rotated(xn, xd, j, cut, n)
    yn, yd = reduce_rotated(yn, yd, j, cut, n)
    return xn, xd, yn, yd, sn[cut:] + sn[:cut], sd[cut:] + sd[:cut]


def wrap_cut(nums, dens, n: int) -> tuple[int, int]:
    """(j, cut) for increasing values spanning less than n: j = floor(v_0 / n)
    and cut is the first index whose value reaches (j + 1) n.  Reduced mod n,
    the values are the rotation that starts at cut."""
    j = nums[0] // (dens[0] * n)
    hi = (j + 1) * n
    cut = 1
    while cut < len(nums) and nums[cut] < hi * dens[cut]:
        cut += 1
    return j, cut


def reduce_rotated(nums, dens, j: int, cut: int, n: int) -> tuple:
    """The values of `wrap_cut`'s (j, cut) reduced mod n, in increasing order."""
    hi = (j + 1) * n
    out = [a - hi * b for a, b in zip(nums[cut:], dens[cut:])]
    out += [a - j * n * b for a, b in zip(nums[:cut], dens[:cut])] if j else nums[:cut]
    return out, dens[cut:] + dens[:cut]


def piece_value(table, i: int, n: int, wn: int, wd: int, carry: int) -> tuple[int, int]:
    """Value at wn/wd of the piece starting at breakpoint i, plus carry * n.

    i = -1 is the wrap piece, which starts at the last breakpoint minus n.
    The three steps are `add`, `mul` and `add` written out in this frame,
    each reducing as that helper does.
    """
    xn, xd, yn, yd, sn, sd = table
    x_n, x_d, y_d = xn[i], xd[i], yd[i]
    if i < 0:
        x_n -= n * x_d
        carry -= 1
    # dn/dd = wn/wd - x_n/x_d
    g = gcd(wd, x_d)
    if g == 1:
        dn, dd = wn * x_d - wd * x_n, wd * x_d
    else:
        s = wd // g
        dn = wn * (x_d // g) - x_n * s
        g2 = gcd(dn, g)
        if g2 == 1:
            dd = s * x_d
        else:
            dn //= g2
            dd = s * (x_d // g2)
    # times the slope sa/sb
    sa, sb = sn[i], sd[i]
    g = gcd(dn, sb)
    if g > 1:
        dn //= g
        sb //= g
    g = gcd(sa, dd)
    if g > 1:
        sa //= g
        dd //= g
    dn, dd = dn * sa, dd * sb
    # plus the value at the piece's start, carried by carry * n
    vn = yn[i] + carry * n * y_d
    g = gcd(y_d, dd)
    if g == 1:
        return vn * dd + y_d * dn, y_d * dd
    s = y_d // g
    t = vn * (dd // g) + dn * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * dd
    return t // g2, s * (dd // g2)


def locate(xn, xd, a: int, b: int) -> int:
    """The number of abscissae xn[i]/xd[i] at most a/b, for b > 0: bisection
    by cross-multiplication."""
    lo, hi = 0, len(xn)
    while lo < hi:
        mid = (lo + hi) >> 1
        if a * xd[mid] < xn[mid] * b:
            hi = mid
        else:
            lo = mid + 1
    return lo


def forms(n: int, table) -> list:
    """The affine form (Q, P, D) of each piece, F(x) = (Q x + P) / D, indexed
    by `locate`'s result: entry 0 is the wrap piece, entry i + 1 the piece
    starting at breakpoint i.  Q = y_d s_n x_d, P = y_n s_d x_d - y_d s_n x_n
    and D = y_d s_d x_d, where the wrap piece takes x_n - n x_d and
    y_n - n y_d: six products per piece and no gcd."""

    def form(x_n, x_d, y_n, y_d, s_n, s_d):
        q, t = y_d * s_n, s_d * x_d
        return q * x_d, y_n * t - q * x_n, y_d * t

    xn, xd, yn, yd, sn, sd = table
    return [form(xn[-1] - n * xd[-1], xd[-1], yn[-1] - n * yd[-1], yd[-1], sn[-1], sd[-1]),
            *map(form, xn, xd, yn, yd, sn, sd)]


def eval_pair(table, forms, n: int, a: int, b: int) -> tuple[int, int]:
    """F(a/b) as a reduced pair, for a reduced a/b with b > 0, from the
    table's `forms`: with a/b reduced mod n by the carry j, F(a/b) is
    N / (D b), N = Q a + (P + j n D) b.  gcd(N, b) = gcd(Q, b) as a and b
    are coprime, and once that is divided out N is coprime to what is left
    of b, so dividing by gcd(N, D) leaves the reduced pair."""
    j = a // (b * n)
    if j:
        a -= j * n * b
    Q, P, D = forms[locate(table[0], table[1], a, b)]
    if j:
        P += j * n * D
    num = Q * a + P * b
    g = gcd(Q, b)
    if g > 1:
        num //= g
        b //= g
    g = gcd(num, D)
    if g > 1:
        return num // g, D // g * b
    return num, D * b


def slope_changes(table) -> list:
    """The indices where the slope changes; equal reduced pairs are equal slopes."""
    sn, sd = table[4], table[5]
    return [i for i in range(len(sn)) if sn[i - 1] != sn[i] or sd[i - 1] != sd[i]]


def descend(n: int, table, T: int):
    """F as a degree-T table if T divides n and F(x + T) = F(x) + T, else None.
    F is fixed by its slope changes, so T is a period iff their pairs, shifted
    by (T, T) or past n by (T - n, T - n), are the same set.  The result
    keeps those in [0, T), plus (0, F(0))."""
    if T < 1 or n % T:
        return None
    xn, xd, yn, yd, sn, sd = table
    keep = slope_changes(table)
    pts = {(xn[i], xd[i], yn[i], yd[i]) for i in keep}
    for a, b, c, d in pts:
        s = T if a + T * b < n * b else T - n
        if (a + s * b, b, c + s * d, d) not in pts:
            return None
    rows = [[col[i] for col in table] for i in keep if xn[i] < T * xd[i]]
    if not rows or rows[0][0]:
        rows.insert(0, (0, 1, *piece_value(table, -1, n, 0, 1, 0), sn[-1], sd[-1]))
    return tuple(map(list, zip(*rows)))


def least_period(n: int, table) -> tuple[int, tuple]:
    """(T, descend(n, table, T)) for the least period T of F - id dividing n.
    A period T < n carries the first slope change x_0 onto a later one below
    n, so T is 1 (no slope change), n or an integer x_i - x_0, which `descend`
    rejects unless it divides n: n is never factored."""
    xn, xd = table[0], table[1]
    keep = slope_changes(table)
    periods = {n if keep else 1}
    for i in keep[1:]:
        T, r = divmod(xn[i] * xd[keep[0]] - xn[keep[0]] * xd[i], xd[i] * xd[keep[0]])
        if not r:
            periods.add(T)
    return next((T, cut) for T in sorted(periods) if (cut := descend(n, table, T)))




def walk(n: int, outer, inner, origin: bool = False):
    """Yield the row (xn, xd, yn, yd, sn, sd) of reduced pairs of x, G(x) and
    the slope from x, for each breakpoint x of G = outer o inner in [0, n) in
    increasing order; with `origin`, x = 0 first even if not a breakpoint.

    The breakpoints are inner's, valued by outer at inner's values, and the
    preimages under inner of outer's breakpoints, one point where they meet.
    On [0, n) inner runs from v = inner(0) to v + n, so one pointer into each
    table, outer's from its first breakpoint at or above v, merges them by
    value.  A piece's slope is the product of the two slopes it runs on.
    """
    axn, axd, ayn, ayd, asn, asd = outer
    bxn, bxd, byn, byd, bsn, bsd = inner
    ma, mb = len(axn), len(bxn)
    vn, vd = piece_value(inner, -1, n, 0, 1, 0) if bxn[0] else (byn[0], byd[0])
    # outer's next breakpoint is i, carried by m: its value is an / axd[i]
    m = vn // (vd * n)
    wn = vn - m * n * vd
    i = bisect_left(range(ma), True, key=lambda i: axn[i] * vd >= wn * axd[i])
    if i == ma:
        i, m = 0, m + 1
    an = axn[i] + m * n * axd[i]
    if origin and bxn[0] and vn * axd[i] != an * vd:
        yield (0, 1, *piece_value(outer, i - 1, n, vn - m * n * vd, vd, m),
               *mul(asn[i - 1], asd[i - 1], bsn[-1], bsd[-1]))
    k, left = 0, ma
    while k < mb or left:
        c = byn[k] * axd[i] - an * byd[k] if k < mb and left else left or -1
        if c < 0:
            # inner's breakpoint k, on outer's piece i - 1
            wn = byn[k] - m * n * byd[k]
            yield (bxn[k], bxd[k], *piece_value(outer, i - 1, n, wn, byd[k], m),
                   *mul(asn[i - 1], asd[i - 1], bsn[k], bsd[k]))
            k += 1
            continue
        if c:
            # the preimage of outer's breakpoint i on inner's piece k - 1
            j = k - 1
            zn, zd = mul(*add(an, axd[i], n * byd[j] - byn[j] if j < 0 else -byn[j], byd[j]),
                         bsd[j], bsn[j])
            zn, zd = add(bxn[j] - n * bxd[j] if j < 0 else bxn[j], bxd[j], zn, zd)
        else:
            j, zn, zd = k, bxn[k], bxd[k]
            k += 1
        yield (zn, zd, ayn[i] + m * n * ayd[i], ayd[i], *mul(asn[i], asd[i], bsn[j], bsd[j]))
        left -= 1
        i += 1
        if i == ma:
            i, m = 0, m + 1
        an = axn[i] + m * n * axd[i]


def compose(n: int, outer, inner) -> tuple:
    """The table of outer(inner(x)) for two degree-n tables: `walk`, kept."""
    # columns are lists: CPython 3.11 parks every freed 20-tuple in a free
    # list it never draws from, so no tuple of the table's length is made
    xn, xd, yn, yd, sn, sd = table = ([], [], [], [], [], [])
    for a, b, c, d, e, f in walk(n, outer, inner):
        xn.append(a)
        xd.append(b)
        yn.append(c)
        yd.append(d)
        sn.append(e)
        sd.append(f)
    return table


def rows(n: int, table):
    """A degree-n table's rows from x = 0, as `walk` with `origin` yields them."""
    if not table[0][0]:
        return zip(*table)
    head = 0, 1, *piece_value(table, -1, n, 0, 1, 0), table[4][-1], table[5][-1]
    return chain([head], zip(*table))


def first_return(n: int, points, p: int, rightmost: bool = False):
    """The leftmost (or rightmost) zero of g(x) = G(x) - x - p in [0, n), a
    Fraction, for the degree-n lift G whose rows `points` yields from x = 0
    (`walk` with `origin`, or `rows`); if g has no zero, the range
    ((lo_n, lo_d), (hi_n, hi_d)) of G - id over the points, reduced pairs.

    A piece yields its left end, where g is 0, or else the zero inside it
    where g changes sign, x + g(x) / (1 - s); the last ends at n, where g is
    g(0).  The leftmost scan stops at the first zero.  At a point g = t / e,
    e = x_d y_d: t's sign is taken once, and the range cross-multiplies only
    where floor(2^64 g) ties.
    """
    hit = prev = None
    for row in points:
        xn, xd, yn, yd, _, _ = row
        t = yn * xd - (xn + p * xd) * yd
        if prev is None:
            t0 = lo_t = hi_t = t
            lo_e = hi_e = e = xd * yd
            lo_f = hi_f = (t << 64) // e
        elif t < 0 < pt or pt < 0 < t:
            hit = prev, True
            if not rightmost:
                break
        if not t:
            hit = row, False
            if not rightmost:
                break
        elif hit is None:
            e = xd * yd
            f = (t << 64) // e
            if f <= lo_f and (f < lo_f or t * lo_e < lo_t * e):
                lo_t, lo_e, lo_f = t, e, f
            elif f >= hi_f and (f > hi_f or t * hi_e > hi_t * e):
                hi_t, hi_e, hi_f = t, e, f
        prev, pt = row, t
    else:
        hit = (prev, True) if t0 < 0 < pt or pt < 0 < t0 else hit
    if hit is None:
        return tuple((a // g, b // g) for a, b in ((lo_t + p * lo_e, lo_e), (hi_t + p * hi_e, hi_e))
                     for g in (gcd(a, b),))
    (xn, xd, yn, yd, sn, sd), inside = hit
    if not inside:
        return fraction(xn, xd)
    gn, gd = add(yn, yd, -(xn + p * xd), xd)
    # 1 - s = (sd - sn) / sd, its sign moved to the numerator
    gn, gd = mul(gn, gd, *((sd, sd - sn) if sd > sn else (-sd, sn - sd)))
    return fraction(*add(xn, xd, gn, gd))


def last_pairs(n: int, table, qs):
    """Yield, for each q >= 0 in `qs` in the order pulled, a pair (outer,
    inner) of tables whose composition is F^q, or (F^q, None) when F^q is
    already built: q = 0 (IDENTITY), q = 1 (F itself) or a square.

    Every power is a product, from q's lowest set bit up, of one chain of
    squares F, F^2, F^4, ..., kept for this call and grown only as far as
    pulled; every composition but the last is built.  BreakpointCapExceeded
    (`check_cap`) when a square passes the cap, or a pair's two tables have
    more than the cap's breakpoints together, which bounds their product's.
    A product below the top square needs no check: F^m has F^(m - 1)'s
    breakpoints and more.
    """
    squares = [table]
    for q in qs:
        if q < 2:
            yield table if q else IDENTITY, None
            continue
        top = q.bit_length() - 1
        rest = q ^ 1 << top
        while len(squares) < top + (rest > 0):
            squares.append(compose(n, squares[-1], squares[-1]))
            check_cap(len(squares[-1][0]), "more than {cap} breakpoints")
        if rest:
            parts = [s for k, s in enumerate(squares) if rest >> k & 1]
            pair = reduce(partial(compose, n), parts), squares[top]
        elif top < len(squares):
            yield squares[top], None
            continue
        else:
            pair = squares[top - 1], squares[top - 1]
        check_cap(len(pair[0][0]) + len(pair[1][0]), "more than {cap} breakpoints")
        yield pair


def power(n: int, table, q: int) -> tuple:
    """The table of F^q for q >= 0: `last_pairs`' pair, composed."""
    outer, inner = next(last_pairs(n, table, (q,)))
    return outer if inner is None else compose(n, outer, inner)
