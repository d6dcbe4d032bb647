"""Exact sign structure of an integer polynomial on [0, 1].

A polynomial is a list of integer coefficients, constant term first, with a
nonzero last entry; a dyadic rational u / 2^k is the pair (u, k).  Every
sign below is exact, taken on Python integers: the distinct real roots are
isolated with a Sturm sequence of the square-free part.  Each root is then
guessed by float Newton, whose last step takes the exact value, and the
guess is kept when the exact signs at the two dyadic midpoints to its float
neighbours bracket the root: it is then the correctly rounded double.  A
root the guess does not settle, such as one on a midpoint (a tie), is
bisected by exact sign until it rounds to one double, ties to even.
"""

from __future__ import annotations

import math


def sign_structure(g: list[int]) -> tuple[list[float], list[int]]:
    """Where the nonzero polynomial g is positive and negative on [0, 1].

    Returns ``(edges, signs)``.  ``edges`` runs from 0.0 to 1.0 through the
    distinct roots of g inside (0, 1), each rounded to the nearest double;
    ``signs[i]`` (+1 or -1) is the sign of g on the open gap between the
    exact points that ``edges[i]`` and ``edges[i + 1]`` stand for.
    """
    seq = _sturm(_primitive(g))
    if len(seq[-1]) > 1:
        # repeated roots: isolate the distinct ones on the square-free part
        seq = _sturm(_primitive(_divide_exact(seq[0], seq[-1])))
    h = seq[0]
    edges, signs = [0.0], []
    for a, k in _isolate(seq):
        edge, left = _round_root(h, a, k)
        edges.append(edge)
        # g keeps one sign between consecutive distinct roots
        signs.append(_sign_at(g, *(left or _left_of_root(seq, a, k))))
    # a root at exactly 1 ends the last gap instead of opening another
    if _sign_at(h, 1, 0) != 0:
        signs.append(_sign_at(g, 1, 0))
        edges.append(1.0)
    return edges, signs


def _primitive(c: list[int]) -> list[int]:
    d = math.gcd(*c)
    return [x // d for x in c]


def _divide_exact(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a (the quotient is then integral)."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in reversed(range(len(q))):
        q[i] = r[i + len(b) - 1] // b[-1]
        for j, c in enumerate(b):
            r[i + j] -= q[i] * c
    return q


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of -(a mod b), by pseudo-division."""
    r = list(a)
    lead, negative = b[-1], False
    while len(r) >= len(b):
        top, shift = r[-1], len(r) - len(b)
        r = [lead * x for x in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        while r and r[-1] == 0:
            r.pop()
        negative ^= lead < 0
    return r if negative else [-x for x in r]


def _sturm(g: list[int]) -> list[list[int]]:
    """g, g', then negated remainders; the last entry is gcd(g, g') up to scale."""
    if len(g) == 1:
        return [g]
    seq = [g, _primitive([i * c for i, c in enumerate(g)][1:])]
    while len(seq[-1]) > 1:
        r = _negated_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_primitive(r))
    return seq


def _sign_at(c: list[int], u: int, k: int) -> int:
    """Sign of c(u / 2^k)."""
    acc = _scaled_value(c, u, k)
    return (acc > 0) - (acc < 0)


def _scaled_value(c: list[int], u: int, k: int) -> int:
    """2^(k deg) c(u / 2^k), by Horner on integers."""
    acc = c[-1]
    for j, coef in enumerate(reversed(c[:-1]), 1):
        acc = acc * u + (coef << (k * j))
    return acc


def _variations(seq: list[list[int]], u: int, k: int) -> int:
    """Sign changes of the Sturm sequence at u / 2^k, zeros skipped.

    For a square-free polynomial, V(x) - V(y) counts its roots in (x, y].
    """
    signs = [s for s in (_sign_at(c, u, k) for c in seq) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate(seq: list[list[int]]) -> list[tuple[int, int]]:
    """Intervals (a / 2^k, (a + 1) / 2^k] holding one root each, ascending, in (0, 1]."""
    found = []
    stack = [(0, 0, _variations(seq, 0, 0), _variations(seq, 1, 0))]
    while stack:
        a, k, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            found.append((a, k))
        elif v_lo > v_hi:
            v_mid = _variations(seq, 2 * a + 1, k + 1)
            stack.append((2 * a + 1, k + 1, v_mid, v_hi))
            stack.append((2 * a, k + 1, v_lo, v_mid))
    return found


def _left_of_root(seq: list[list[int]], a: int, k: int) -> tuple[int, int]:
    """A dyadic point strictly between a / 2^k and the root of its interval."""
    v_lo = _variations(seq, a, k)
    while True:
        a, k = 2 * a, k + 1
        if _variations(seq, a + 1, k) == v_lo:
            return a + 1, k


def _round_root(h: list[int], a: int, k: int) -> tuple[float, tuple[int, int] | None]:
    """The double nearest the root of square-free h in (a / 2^k, (a + 1) / 2^k].

    Also returns a dyadic point strictly between a / 2^k and the root when
    the rounding found one on the way, else None.  A checked float guess
    settles most roots (``_checked_guess``); otherwise the root is bisected
    by exact sign until both ends round to the same double.  Rounding is
    monotonic and integer true division rounds correctly, ties to even, so
    this settles it; a dyadic root, a tie included, is met exactly.
    """
    side = _sign_at(h, a + 1, k)
    if side == 0:
        return (a + 1) / (1 << k), None
    guess = _checked_guess(h, a, k, side)
    if guess is not None:
        return guess
    while a / (1 << k) != (a + 1) / (1 << k):
        a, k = 2 * a, k + 1
        s = _sign_at(h, a + 1, k)
        if s == 0:
            return (a + 1) / (1 << k), None
        if s != side:
            a += 1
    return a / (1 << k), None


def _checked_guess(
    h: list[int], a: int, k: int, side: int
) -> tuple[float, tuple[int, int]] | None:
    """(x, lower midpoint) for a float guess x proved to be the rounded root, or None.

    ``side`` is the sign of h at (a + 1) / 2^k, so -side is its sign left of
    the root.  x is the answer when the exact signs of h at the midpoints
    between x and its two float neighbours are -side and side, with both
    midpoints inside the interval: the root then lies strictly between
    them, so x is nearest and no tie arises.  A zero sign means the root is
    a midpoint, a tie that the bisection meets exactly.
    """
    x = _newton(h, a / (1 << k), (a + 1) / (1 << k), side)
    if not math.isfinite(x):
        return None
    below = _midpoint(math.nextafter(x, -math.inf), x)
    above = _midpoint(x, math.nextafter(x, math.inf))
    if (
        (a << below[1]) < (below[0] << k)
        and (above[0] << k) <= ((a + 1) << above[1])
        and _sign_at(h, *below) == -side
        and _sign_at(h, *above) == side
    ):
        return x, below
    return None


def _newton(h: list[int], lo: float, hi: float, side: int) -> float:
    """Float Newton for the root of h in [lo, hi], where h has the sign ``side`` at hi.

    A step that would leave the bracket, which the float sign of h narrows,
    bisects it instead.  The last step takes the exact value of h, so that
    rounded coefficients do not shift the guess by more than about an ulp.
    """
    # scaled so that the coefficients, and h and h' on [0, 1], stay finite
    shift = max(0, max(abs(c).bit_length() for c in h) - 960)
    coefs = [float(c >> shift) for c in reversed(h)]
    x, before = (lo + hi) / 2, None
    for _ in range(64):
        value = slope = 0.0
        for c in coefs:
            slope = slope * x + value
            value = value * x + c
        if (value > 0) == (side > 0):
            hi = x
        else:
            lo = x
        step = x - value / slope if slope else math.nan
        if not lo <= step <= hi:
            step = (lo + hi) / 2
        if step == x or step == before:
            # converged, or cycling between two neighbouring doubles
            break
        before, x = x, step
    if slope:
        # integer true division rounds the exact h(x) / 2^shift correctly
        u, d = x.as_integer_ratio()
        k = d.bit_length() - 1
        x -= _scaled_value(h, u, k) / (1 << (k * (len(h) - 1) + shift)) / slope
    return x


def _midpoint(x: float, y: float) -> tuple[int, int]:
    """(x + y) / 2 exactly, as a dyadic (u, k)."""
    (m, d), (n, e) = x.as_integer_ratio(), y.as_integer_ratio()
    big = max(d, e)
    return m * (big // d) + n * (big // e), big.bit_length()
