"""Integer kernel of the piecewise-linear lifts in `circlemaps`.

A degree-n lift's table is the 6-tuple (xn, xd, yn, yd, sn, sd) of integer
sequences: numerators and positive denominators of its breakpoint abscissae
(sorted, in [0, n)), its values (strictly increasing, spanning less than n)
and its slopes, every pair reduced.  Slope i is that of the piece starting at
breakpoint i; the last piece wraps to the first breakpoint plus n.

Composition and powers run on tables and build no Fraction.  Point
evaluation (`eval_pair`) also reads the affine form of each piece (`forms`),
which a lift derives once, when it is built.  Fractions leave the kernel
only through `fraction`, from pairs already reduced.  The period search
(`slope_changes`, `descend`, `least_period`) only compares and copies pairs,
so it also takes the table of x + delta(x) for a bare periodic delta, whose
values need not increase; `compose` and `wrap_cut` do.
Sums and products of reduced pairs are reduced in the order `fractions`
uses: gcd of the denominators first, cancelling across before multiplying.
So `add`, `mul` and `compose` take no gcd of a product of several
coordinates, which matters once coordinates run to thousands of digits.
`eval_pair` takes one per point, gcd(N, D) with D a product of three
coordinates: on 600-bit tables a point still costs less than the reduced
steps of `piece_value` followed by `Fraction(n, d)`.

This module is internal; `PLLift` is the public face of a table.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import BreakpointCapExceeded

IDENTITY = ((0,), (1,), (0,), (1,), (1,), (1,))

_new = object.__new__


def fraction(n: int, d: int) -> Fraction:
    """`Fraction(n, d)` for a reduced pair with d > 0, without its gcd: the
    one writer of a Fraction's slots (CPython 3.10 to 3.13 have these two),
    as 3.12's `Fraction._from_coprime_ints` is."""
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


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


def slopes(xn, xd, yn, yd, pn: int, pd: int, rise: int) -> tuple[list, list]:
    """The slope of the piece from each breakpoint as (numerators,
    denominators), for sorted distinct abscissae in lists: the last piece
    ends at the first breakpoint plus the period pn/pd, its value risen by
    `rise` (n for a degree-n lift, 0 for a periodic function)."""
    wn, wd = add(xn[0], xd[0], pn, pd)
    ends = zip(xn[1:] + [wn], xd[1:] + [wd], yn[1:] + [yn[0] + rise * yd[0]], yd[1:] + yd[:1])
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


def offset_sign(table, cn: int, cd: int) -> int:
    """1 if F(x) - x > cn/cd at every breakpoint, -1 if F(x) - x < cn/cd at
    every one, else 0; cd > 0.  F - id is piecewise linear and periodic, so
    its extrema lie on breakpoints and a nonzero sign holds on the whole line.
    Each breakpoint costs one cross-multiplication and builds no Fraction."""
    sign = 0
    for a, b, c, d in zip(*table[:4]):
        u, v = c * b * cd, (a * cd + cn * b) * d
        s = (u > v) - (u < v)
        if s == 0 or s == -sign:
            return 0
        sign = s
    return sign


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


def compose(n: int, outer, inner) -> tuple:
    """The table of outer(inner(x)) for two degree-n tables.

    The breakpoints are inner's, valued by evaluating outer at inner's values,
    and the preimages under inner of outer's breakpoints, valued by outer's
    breakpoint values less the integer carry.  Reduced mod n, both lists are
    rotations of sorted lists, so pointer walks replace bisection and one
    merge replaces sorting.  The slope of each piece is the product of the
    two slopes it runs on.
    """
    axn, axd, ayn, ayd, asn, asd = outer
    bxn, bxd, byn, byd, bsn, bsd = inner
    ma, mb = len(axn), len(bxn)
    # inner's values reduced into [0, n): indices >= cut carry one more n
    j0, cut = wrap_cut(byn, byd, n)
    iyn, iyd, isn, isd = ([None] * mb for _ in range(4))
    i = -1
    for k in chain(range(cut, mb), range(cut)):
        j = j0 + 1 if k >= cut else j0
        wd = byd[k]
        wn = byn[k] - j * n * wd
        while i + 1 < ma and axn[i + 1] * wd <= wn * axd[i + 1]:
            i += 1
        iyn[k], iyd[k] = piece_value(outer, i, n, wn, wd, j)
        isn[k], isd[k] = mul(asn[i], asd[i], bsn[k], bsd[k])
    # outer's breakpoints reduced into [by0, by0 + n): indices >= cut carry one more n
    y0n, y0d = byn[0], byd[0]
    m0 = -y0n // (y0d * n)
    tn = y0n + (m0 + 1) * n * y0d
    cut = 0
    while cut < ma and axn[cut] * y0d < tn * axd[cut]:
        cut += 1
    # the preimages increase along the walk; those past n wrap to the front
    pxn, pxd, pyn, pyd, psn, psd = ([None] * ma for _ in range(6))
    front = ma
    k = 0
    for t, i in enumerate(chain(range(cut, ma), range(cut))):
        m = m0 + 1 if i >= cut else m0
        wd = axd[i]
        wn = axn[i] - m * n * wd
        while k + 1 < mb and byn[k + 1] * wd <= wn * byd[k + 1]:
            k += 1
        zn, zd = add(wn, wd, -byn[k], byd[k])
        zn, zd = mul(zn, zd, bsd[k], bsn[k])
        zn, zd = add(bxn[k], bxd[k], zn, zd)
        if zn >= n * zd:
            zn -= n * zd
            m += 1
            front = min(front, t)
        pxn[t], pxd[t], pyn[t], pyd[t] = zn, zd, ayn[i] - m * n * ayd[i], ayd[i]
        psn[t], psd[t] = mul(asn[i], asd[i], bsn[k], bsd[k])
    pxn, pxd, pyn, pyd, psn, psd = (
        col[front:] + col[:front] for col in (pxn, pxd, pyn, pyd, psn, psd)
    )
    # merge: `order` lists preimage p as p and inner breakpoint k as ~k; a
    # preimage on an inner breakpoint is one point
    order = []
    p = 0
    for k in range(mb):
        while p < ma:
            c = pxn[p] * bxd[k] - bxn[k] * pxd[p]
            if c > 0:
                break
            if c < 0:
                order.append(p)
            p += 1
        order.append(~k)
    order += range(p, ma)

    # columns are lists: CPython 3.11 parks every freed 20-tuple in a free
    # list it never draws from, so 20-element tuples made per composition
    # would pile up there
    def column(pre_col, inner_col):
        return [pre_col[v] if v >= 0 else inner_col[~v] for v in order]

    return (
        column(pxn, bxn), column(pxd, bxd), column(pyn, iyn),
        column(pyd, iyd), column(psn, isn), column(psd, isd),
    )


def _capped(table, cap: int) -> tuple:
    if len(table[0]) > cap:
        raise BreakpointCapExceeded(f"more than {cap} breakpoints")
    return table


def powers(n: int, table, qs, cap: int):
    """Yield the table of F^q for each q >= 0 in `qs`, in the order pulled.

    Every power is a product of one chain of squares F, F^2, F^4, ..., kept
    for this call only and grown only as far as the largest q pulled so far;
    F itself is the first square, not a copy.  The lowest set bit of q takes
    its square as is, so nothing is composed with the identity: F^(2^k)
    costs k compositions and q = 0 yields IDENTITY.  Raises
    BreakpointCapExceeded when a square or a product passes `cap`.
    """
    squares = [table]
    for q in qs:
        while len(squares) < q.bit_length():
            squares.append(_capped(compose(n, squares[-1], squares[-1]), cap))
        result = None
        for k, square in enumerate(squares[: q.bit_length()]):
            if q >> k & 1:
                result = square if result is None else _capped(compose(n, result, square), cap)
        yield IDENTITY if result is None else result


def power(n: int, table, q: int, cap: int) -> tuple:
    """The table of F^q for q >= 0 by squaring (see `powers`); the squares
    and partial products stay tables.  Raises BreakpointCapExceeded past
    `cap`."""
    return next(powers(n, table, (q,), cap))
