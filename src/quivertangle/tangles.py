"""Rational slopes, continued fractions, the boundary walk of a twist
word and the writhe read off it, and enumeration of rational knots up
to equivalence.

Conventions.  A continued fraction [a1,...,ar] (all terms positive, r
odd) is evaluated right to left:

    value = ar + 1/(a_{r-1} + 1/(... + 1/a1))

while the tangle is built left to right: a1 top twists first, then a2
right twists, and so on, ending with ar top twists.  Both conventions
appear in the literature; this pair is the one used consistently across
the package.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import reduce
from math import gcd

UP = "UP"
OP = "OP"
RI = "RI"


class Slope(namedtuple("Slope", "p q")):
    """A rational slope p/q in lowest terms."""
    __slots__ = ()

    def __new__(cls, p, q):
        if p < 1 or q < 1:
            raise ValueError("slope needs positive p and q")
        if gcd(p, q) != 1:
            raise ValueError(f"slope {p}/{q} not in lowest terms")
        return super().__new__(cls, p, q)

    def __str__(self):
        return f"{self.p}/{self.q}"


def count_text(n, least=False):
    """A positive count in decimal, named as a least count when least,
    or as a power of ten it reaches when str() would refuse its digits
    (sys.get_int_max_str_digits())."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or n.bit_length() <= 3 * limit:  # 8^limit < 10^limit
        return f"at least {n}" if least else str(n)
    # 10^k <= 2^(bits - 1) <= n, since 0.3010 < log10(2)
    return f"at least 10^{(n.bit_length() - 1) * 3010 // 10000}"


def refuse_over(what, count, bound, least=False):
    """Raise ValueError when count is over bound, in the one shape of
    every count-over-bound refusal: `<what> <count>, more than the bound
    <bound>`, the count written by count_text."""
    if count > bound:
        raise ValueError(f"{what} {count_text(count, least)}, more than "
                         f"the bound {bound}")


def cf_value(terms):
    """Evaluate [a1,...,ar] to a Slope: ar + 1/(a_{r-1} + ... + 1/a1).
    Numerator and denominator are the continuants p_k = a_k p_{k-1} +
    p_{k-2}, coprime at every step, so the pair needs no reduction."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty continued fraction")
    p, q = 1, 0
    for t in terms:
        p, q = t * p + q, p
    return Slope(p, q)


def _euclidean_terms(p, q):
    """Minimal continued fraction of p/q read off from the evaluation
    order, right to left: [ar, a_{r-1}, ..., a1]."""
    # peel the integer part repeatedly, collecting terms right to left
    rev = []
    num, den = p, q
    while den:
        rev.append(num // den)
        num, den = den, num - (num // den) * den
    return rev


def cf_expand(slope):
    """Odd-length all-positive continued fraction of a slope.

    The raw Euclidean expansion is computed first; if its length is even
    the leading term is rewritten via [a1+1, ...] = [1, a1, ...] so the
    result has odd length: a1, the last Euclidean quotient, is at least
    2 when there are two or more terms.  cf_value(cf_expand(s)) == s.
    """
    terms = _euclidean_terms(slope.p, slope.q)[::-1]
    if any(t < 1 for t in terms):
        raise ValueError("slope must be >= 1")
    if len(terms) % 2 == 0:
        terms = [1, terms[0] - 1] + terms[1:]
    if cf_value(terms) != slope:
        raise ArithmeticError(f"{terms} does not expand {slope}")
    return terms


def boundary_after(boundary, kind):
    """Boundary orientation type after one twist of the given kind."""
    if kind == "T":
        return {UP: UP, OP: RI, RI: OP}[boundary]
    if kind == "R":
        return {UP: OP, OP: UP, RI: RI}[boundary]
    raise ValueError(f"unknown twist kind {kind!r}")


def twist_sequence(terms):
    """The building word for [a1,...,ar]: a1 T's, a2 R's, alternating."""
    word = []
    for i, count in enumerate(terms):
        word.extend(["T" if i % 2 == 0 else "R"] * count)
    return word


def boundary_walk(terms):
    """(boundary before the twist, twist kind) for each twist of the
    building word of [a1,...,ar], starting from the trivial UP tangle."""
    boundary = UP
    for kind in twist_sequence(terms):
        yield boundary, kind
        boundary = boundary_after(boundary, kind)


# Per-twist writhe contribution by (boundary before the twist, kind).
# Twisting two parallel strands gives a positive crossing; antiparallel
# strands give the opposite sign for the same geometric twist.  The
# table is pinned down by the unknot normalization and by invariance of
# the reduced polynomial across equivalent slopes (see tests).
WRITHE_SIGN = {
    (UP, "T"): 1, (OP, "T"): -1, (RI, "T"): -1,
    (UP, "R"): 1, (OP, "R"): 1, (RI, "R"): -1,
}


def writhe(terms):
    """Writhe of the standard diagram built from the CF terms: its frame."""
    return sum(WRITHE_SIGN[step] for step in boundary_walk(terms))


def is_knot(slope):
    return slope.p % 2 == 1


def ends_ri(slope):
    """True if the standard tangle of the slope has the East-West
    boundary pattern, which admits no North-South closure."""
    return reduce(boundary_after, twist_sequence(cf_expand(slope)), UP) == RI


def good_representative(slope):
    """A representative of the same unoriented link whose tangle closes
    North-South.  Returns (slope, mirrored): slopes q and q^{-1} mod p
    give the same link, p-q and (p-q)^{-1} its mirror image.  When only
    a mirror representative closes, results must be post-composed with
    q -> q^{-1}, a -> a^{-1} on series output."""
    p, q = slope.p, slope.q
    if p == 1:
        return slope, False
    qi = pow(q, -1, p)
    # prefer the slope as given: for two-component links the choice of
    # representative fixes the relative orientation of the components,
    # so it must never be changed when the given tangle already closes
    for qc in (q, qi):
        s = Slope(p, qc)
        if not ends_ri(s):
            return s, False
    for qc in (p - q, p - qi):
        s = Slope(p, qc)
        if not ends_ri(s):
            return s, True
    raise ValueError(f"no closable representative for {slope}")


def resolve_terms(slope_or_terms):
    """Continued-fraction terms of a closable diagram for the input,
    plus whether a mirror representative had to be substituted (see
    good_representative).  CF input is taken as given."""
    if isinstance(slope_or_terms, Slope):
        rep, mirrored = good_representative(slope_or_terms)
        return cf_expand(rep), mirrored
    return list(slope_or_terms), False


def knot_class(p, q):
    """Equivalence class of q values giving the same unoriented knot:
    q, p-q (mirror), and their inverses mod p."""
    qi = pow(q, -1, p)
    return {q, p - q, qi, p - qi}


def crossing_number(slope):
    """Crossing number of the slope p/q (q < p): the term sum of its
    Euclidean continued fraction, the twist count of its reduced
    alternating diagram.  The sum is the same on every slope of
    knot_class, so no minimum over the class is needed."""
    return sum(_euclidean_terms(slope.p, slope.q))


def enumerate_rational_knots(budget):
    """All rational knots of crossing number at most `budget`, one
    canonical representative (smallest q) per unoriented equivalence
    class, sorted by (p, q).  Each slope p/q > 1 has exactly one
    Euclidean continued fraction, whose first built term is >= 2, so
    one walk over those with term sum <= budget meets each class's
    smallest-q slope exactly once."""
    if budget < 3:
        raise ValueError("budget must be at least 3")
    out = []
    # (p, q, twists left) after the terms built so far: a next term t
    # takes p/q to (t p + q)/p
    stack = [(a1, 1, budget - a1) for a1 in range(2, budget + 1)]
    while stack:
        p, q, left = stack.pop()
        if p % 2 and q == min(knot_class(p, q)):
            out.append(Slope(p, q))
        stack.extend((t * p + q, p, left - t) for t in range(1, left + 1))
    out.sort(key=lambda s: (s.p, s.q))
    return out
