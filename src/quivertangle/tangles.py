"""Rational slopes, continued fractions, the boundary/connectivity
automaton, and enumeration of rational knots up to equivalence.

Conventions.  A continued fraction [a1,...,ar] (all terms positive, r
odd) is evaluated right to left:

    value = ar + 1/(a_{r-1} + 1/(... + 1/a1))

while the tangle is built left to right: a1 top twists first, then a2
right twists, and so on, ending with ar top twists.  Both conventions
appear in the literature; this pair is the one used consistently across
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

UP = "UP"
OP = "OP"
RI = "RI"

KNOT = "knot"
LINK = "two-component-link"


@dataclass(frozen=True)
class Slope:
    """A rational slope p/q in lowest terms."""
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("slope needs positive p and q")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} not in lowest terms")

    def __str__(self):
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class TangleClass:
    boundary: str  # UP | OP | RI
    connectivity: str  # knot | two-component-link


def cf_value(terms):
    """Evaluate [a1,...,ar] to a Slope: ar + 1/(a_{r-1} + ... + 1/a1)."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty continued fraction")
    value = Fraction(terms[0])
    for t in terms[1:]:
        value = t + 1 / value
    return Slope(value.numerator, value.denominator)


def _euclidean_terms(p, q):
    """Minimal continued fraction of p/q read off from the evaluation
    order, right to left: [ar, a_{r-1}, ..., a1]."""
    # peel the integer part repeatedly, collecting terms right to left
    rev = []
    num, den = p, q
    while den:
        rev.append(num // den)
        num, den = den, num - (num // den) * den
    if rev[-1] == 1 and len(rev) > 1:
        # the first built term a1 = rev[-1] may be 1 only when r = 1;
        # fold [.., x, 1] into [.., x+1] to get the minimal expansion.
        rev.pop()
        rev[-1] += 1
    return rev


def cf_expand(slope):
    """Odd-length all-positive continued fraction of a slope.

    The raw Euclidean expansion is computed first; if its length is even
    the leading term is rewritten via [a1+1, ...] = [1, a1, ...] so the
    result has odd length.  cf_value(cf_expand(s)) == s always.
    """
    terms = _euclidean_terms(slope.p, slope.q)[::-1]
    if any(t < 1 for t in terms):
        raise ValueError("slope must be >= 1")
    if len(terms) % 2 == 0:
        if terms[0] >= 2:
            terms = [1, terms[0] - 1] + terms[1:]
        else:
            terms = [terms[1] + 1] + terms[2:]
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


def classify(terms):
    """Run the six-state automaton over the building word of a CF.  The
    states sit on a cycle whose edges are alternately top and right
    twists: connectivity flips on every top twist and on a right twist
    at an RI boundary."""
    boundary, knot = UP, False  # trivial tangle
    for before, kind in boundary_walk(terms):
        if kind == "T" or before == RI:
            knot = not knot
        boundary = boundary_after(before, kind)
    return TangleClass(boundary, KNOT if knot else LINK)


def is_knot(slope):
    return slope.p % 2 == 1


@lru_cache(maxsize=None)
def _cf_weight(p, q):
    """Sum of the Euclidean continued fraction terms of p/q (the twist
    count of the standard alternating diagram)."""
    return sum(_euclidean_terms(p, q))


def ends_ri(slope):
    """True if the standard tangle of the slope has the East-West
    boundary pattern, which admits no North-South closure."""
    return classify(cf_expand(slope)).boundary == RI


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


def knot_class(p, q):
    """Equivalence class of q values giving the same unoriented knot:
    q, p-q (mirror), and their inverses mod p."""
    qi = pow(q, -1, p)
    return {q, p - q, qi, p - qi}


def crossing_number(slope):
    """Minimal twist count over the equivalence class of the slope."""
    p = slope.p
    return min(_cf_weight(p, q) for q in knot_class(p, slope.q))


def enumerate_rational_knots(budget):
    """All rational knots admitting a diagram with at most `budget`
    crossings, one canonical representative (smallest q) per unoriented
    equivalence class."""
    if budget < 3:
        raise ValueError("budget must be at least 3")
    # p is bounded by the continuant of `budget` ones (Fibonacci growth)
    hi, nxt = 1, 1
    for _ in range(budget):
        hi, nxt = nxt, hi + nxt
    out = []
    for p in range(3, nxt + 1, 2):
        seen = set()
        for q in range(1, p):
            if gcd(p, q) != 1 or q in seen:
                continue
            cls = knot_class(p, q)
            seen |= cls
            if min(_cf_weight(p, qq) for qq in cls) <= budget:
                out.append(Slope(p, min(cls)))
    out.sort(key=lambda s: (s.p, s.q))
    return out
