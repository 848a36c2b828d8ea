"""Independent oracle for reduced colored HOMFLY-PT polynomials of
rational links, computed directly from the basis-web twist and closure
rules.

A color-j skein element of a 4-ended tangle is a vector of j+1
coefficients over the basis webs UP[j,k], OP[j,k] or RI[j,k].  Top (T)
and right (R) twists act by explicit linear maps; closing the tangle
evaluates to a scalar.  The computation is per color and never builds
generating functions, which keeps it independent from the quiver-state
pipeline it cross-checks.

The rules are written once, as LaurentPoly matrices (twist_matrix,
closure_numerator), and applied on packed integers: a coefficient is a
dict {a exponent: int}, each int its q-slice evaluated at q = 2^B (a
Kronecker substitution), so a rule costs a few bigint products per
a-slice.  Each rule matrix is divided by its lowest power of q, and the
element carries the total shift.  B is fixed before packing, from a
proven bound: L1 norms (sums of absolute coefficients) propagate
through the same rules, L1(sum m c) <= sum L1(m) L1(c), and 2^(B-1)
exceeds the bound of every result, so each result coefficient is one
balanced base-2^B digit.  B is a whole number of bytes; a slot of any
width up to 8 bytes decodes in one memoryview cast.

raw_closure divides before it decodes: each a-slice of the packed
closure numerator f is divided by (q^2;q^2)_j at q = 2^B, one divmod
per slice, and the decoded quotient h is returned only when every
remainder is 0 and L1((q^2;q^2)_j) L1(h) < 2^(B-1), which proves
(q^2;q^2)_j h = f.  Otherwise f is decoded and kept over (q^2;q^2)_j.
The decode also applies the zero-frame monomial f(j)^n = (-1)^{jn}
q^{j^2 n - jn} a^{-jn} (n the negated writhe) and, for a mirror
representative, the mirror, so each digit is written once, at its
printed key and sign; the fallback mirrors its denominator too.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache
from operator import mul
from struct import calcsize

from .qseries import (LaurentPoly, QFraction, ZERO, a_pow, pochhammer,
                      poch_q2, q_pow, qbinom_plus)
from .tangles import (OP, RI, UP, boundary_after, cf_expand,
                      good_representative, twist_sequence, writhe)

# (native width, struct format) of the narrowest native unsigned width
# that holds a slot, by slot width in bytes up to 8; empty on a
# big-endian host, whose casts would read the digits byte-reversed
_DIGIT_FORMATS = ({width: min((calcsize(f), f) for f in "BHIQ"
                              if calcsize(f) >= width)
                   for width in range(1, 9)}
                  if sys.byteorder == "little" else {})


class SkeinElement(namedtuple("SkeinElement", "color boundary coeffs")):
    """A color-j element of the skein module of its boundary (UP | OP |
    RI): coeffs holds its j+1 LaurentPoly values, the coefficient of
    X[j,k] at k."""
    __slots__ = ()

    def __new__(cls, color, boundary, coeffs):
        if len(coeffs) != color + 1:
            raise ValueError("a color-j element has j+1 coefficients")
        return super().__new__(cls, color, boundary, coeffs)


def basis_element(j, boundary=UP, k=0):
    coeffs = [ZERO] * (j + 1)
    coeffs[k] = LaurentPoly.mono(1)
    return SkeinElement(j, boundary, coeffs)


def _mono(sign_exp, q_exp, a_exp):
    """(-q)^sign_exp * q^q_exp * a^a_exp as a LaurentPoly."""
    return LaurentPoly.mono(-1 if sign_exp % 2 else 1,
                            sign_exp + q_exp, a_exp)


@lru_cache(maxsize=None)
def twist_matrix(boundary, kind, j):
    """Column h of the matrix carries the image of X[j,k]: entries
    m[h][k] with new element coeff'[h] = sum_k m[h][k] coeff[k].
    Cached, so returned as a tuple of row tuples."""
    m = [[ZERO] * (j + 1) for _ in range(j + 1)]
    if kind == "T":
        for k in range(j + 1):
            for h in range(k, j + 1):
                if boundary == UP:
                    c = _mono(h - j, k * k, 0)
                elif boundary == OP:
                    c = _mono(h, k * k - 2 * j * k, k)
                else:  # RI
                    c = _mono(h, k * k - 2 * j * h, h)
                m[h][k] = c * qbinom_plus(h, k)
    elif kind == "R":
        for k in range(j + 1):
            for h in range(k + 1):
                if boundary == UP:
                    c = _mono(h - j, -2 * k * h + k * k + j * j, h - j)
                elif boundary == OP:
                    c = _mono(h - j, 2 * h * (j - k) + (k - j) ** 2, k - j)
                else:  # RI
                    c = _mono(h, h * (2 * j - 2 * k) + k * k - j * j, 0)
                m[h][k] = c * qbinom_plus(j - h, k - h)
    else:
        raise ValueError(f"unknown twist kind {kind!r}")
    return tuple(map(tuple, m))


@lru_cache(maxsize=None)
def closure_numerator(boundary, j, k):
    """Reduced North-South evaluation of the closed basis web X[j,k],
    times (q^2;q^2)_j.  An OP web evaluates over (q^2;q^2)_{j-k}, which
    divides (q^2;q^2)_j with quotient [j;k]_+ (q^2;q^2)_k.  RI webs do
    not close North-South."""
    if boundary == UP:
        return (a_pow(-j) * q_pow(j * j + k * k)
                * pochhammer(LaurentPoly.mono(1, 2 - 2 * j - 2 * k, 2), 2, j)
                * qbinom_plus(j, k))
    if boundary == OP:
        return (a_pow(k - j) * q_pow((j - k) ** 2)
                * pochhammer(LaurentPoly.mono(1, 2 - 2 * j, 2), 2, j - k)
                * qbinom_plus(j, k) ** 2 * poch_q2(k))
    raise ValueError(f"{boundary} does not close North-South")


def _l1(p):
    return sum(map(abs, p.terms.values()))


def _rule(boundary, kind, j):
    """A rule as a LaurentPoly matrix on the j+1 coefficients: a twist
    (kind T or R), or the closure (kind None), one row of the numerators
    over (q^2;q^2)_j."""
    if kind is None:
        return (tuple(closure_numerator(boundary, j, k)
                      for k in range(j + 1)),)
    return twist_matrix(boundary, kind, j)


@lru_cache(maxsize=None)
def _rule_norms(boundary, kind, j):
    return tuple(tuple(map(_l1, row)) for row in _rule(boundary, kind, j))


def _q_low(polys):
    return min((eq for p in polys for eq, _ in p.terms), default=0)


def _pack(p, B, low):
    """{a exponent: the a-slice of q^-low p at q = 2^B}; low is at most
    every q exponent of p."""
    out = {}
    for (eq, ea), c in p.terms.items():
        out[ea] = out.get(ea, 0) + (c << B * (eq - low))
    return out


@lru_cache(maxsize=None)
def _packed_rule(boundary, kind, j, B):
    """(low, rows): the rule divided by q^low, its lowest power of q,
    with row h the packed nonzero entries (k, a exponent, int) of
    m[h][k]."""
    m = _rule(boundary, kind, j)
    low = _q_low(c for row in m for c in row)
    return low, tuple(tuple((k, ea, v) for k, c in enumerate(row)
                            for ea, v in _pack(c, B, low).items())
                      for row in m)


def _unpack(slices, B, low, sign=1, a_shift=0, mirrored=False):
    """sign q^low a^a_shift times the packed slices, as a LaurentPoly,
    mirrored (q -> 1/q, a -> 1/a) when mirrored: each digit is written
    once, at its final key.  Every integer has one balanced base-2^B
    expansion, digits in [-2^(B-1), 2^(B-1)): adding 2^(B-1) at every
    digit position makes each digit a field of B/8 bytes of its own,
    and bit_length // B + 2 digits always hold it.  Fields of up to 8
    bytes are read in one memoryview cast: a field of a width with no
    native format is first spread to the next native width, one strided
    copy per byte of the field.  A sign of -1 decodes the negated
    integers: their digits are the negated digits when every digit is
    above -2^(B-1), as an L1 bound below 2^(B-1) proves."""
    width = B // 8
    half = 1 << B - 1
    half_digit = half.to_bytes(width, "little")
    cast = _DIGIT_FORMATS.get(width)
    step = -1 if mirrored else 1
    terms = {}
    for ea, n in slices.items():
        if not n:
            continue
        if sign < 0:
            n = -n
        count = n.bit_length() // B + 2
        raw = (n + int.from_bytes(half_digit * count, "little")
               ).to_bytes(width * count, "little")
        if cast:
            size, fmt = cast
            if size != width:
                wide = bytearray(size * count)
                for i in range(width):
                    wide[i::size] = raw[i::width]
                raw = wide
            digits = memoryview(raw).cast(fmt).tolist()
        else:
            digits = [int.from_bytes(raw[i:i + width], "little")
                      for i in range(0, width * count, width)]
        ea = step * (ea + a_shift)
        for eq, c in zip(range(step * low, step * (low + count), step),
                         digits):
            if c != half:
                terms[(eq, ea)] = c - half
    out = LaurentPoly()
    out.terms = terms
    return out


def _evaluate_packed(e, kinds, closed=False):
    """(boundary, slices, B, low) of e after the twists `kinds` and, if
    closed, the closure (then one coefficient, the numerator over
    (q^2;q^2)_j): each coefficient packed as {a exponent: int} at
    q = 2^B, times q^-low."""
    j, boundary = e.color, e.boundary
    steps = []
    norms = [_l1(c) for c in e.coeffs]
    for kind in [*kinds, None] if closed else kinds:
        norms = [sum(map(mul, row, norms))
                 for row in _rule_norms(boundary, kind, j)]
        steps.append((boundary, kind))
        if kind is not None:
            boundary = boundary_after(boundary, kind)
    # a whole number of bytes, with 2^(B-1) > every result's L1 bound
    B = 8 * ((max(norms).bit_length() + 8) // 8)
    low = _q_low(e.coeffs)
    coeffs = [_pack(c, B, low) for c in e.coeffs]
    for step in steps:
        shift, rows = _packed_rule(*step, j, B)
        low += shift
        out = []
        for row in rows:
            acc = {}
            for k, da, w in row:
                for ea, v in coeffs[k].items():
                    acc[ea + da] = acc.get(ea + da, 0) + w * v
            out.append(acc)
        coeffs = out
    return boundary, coeffs, B, low


@lru_cache(maxsize=None)
def _packed_poch(j, B):
    """(q^2;q^2)_j at q = 2^B, and its L1 norm."""
    g = poch_q2(j)
    return _pack(g, B, 0)[0], _l1(g)


def _packed_quotient(slices, j, B, low, sign=1, a_shift=0,
                     mirrored=False):
    """h = f / (q^2;q^2)_j for the packed f (its coefficients below
    2^(B-1) in absolute value), decoded by _unpack with the same sign,
    a_shift and mirror, or None when that is not proven.

    Evaluation at q = 2^B is a ring map, so a nonzero remainder of a
    slice means there is no quotient.  A zero remainder alone proves
    nothing: h is decoded as the balanced digits of the quotient, and
    kept only when L1(g) L1(h) < 2^(B-1).  Then every coefficient of g h
    is a balanced base-2^B digit, as every coefficient of f is, and two
    such polynomials that agree at q = 2^B are equal.  The sign, shift
    and mirror leave L1 unchanged."""
    G, g_norm = _packed_poch(j, B)
    out = {}
    for ea, n in slices.items():
        h, r = divmod(n, G)
        if r:
            return None
        out[ea] = h
    h = _unpack(out, B, low, sign, a_shift, mirrored)
    if g_norm * _l1(h) >= 1 << B - 1:
        return None
    return h


def raw_closure(word, j, frame=0, mirrored=False):
    """Reduced evaluation of the closed tangle built by the twist word,
    times f(j)^frame with f(j) = (-q)^{-j} a^{-j} q^{j^2}, and mirrored
    when mirrored: the closure numerator divided by (q^2;q^2)_j while
    still packed when the quotient is proven exact, else over that
    denominator (mirrored with it)."""
    _, (f,), B, low = _evaluate_packed(basis_element(j, UP, 0), word,
                                       closed=True)
    jn = j * frame
    sign = -1 if jn % 2 else 1
    low += j * jn - jn
    h = _packed_quotient(f, j, B, low, sign, -jn, mirrored)
    if h is not None:
        return QFraction(h)
    den = poch_q2(j)
    return QFraction(_unpack(f, B, low, sign, -jn, mirrored),
                     den.mirror() if mirrored else den)


# the highest color and the most twists (CF term sum, the same for
# every representative of a slope) the `oracle` command evaluates: the
# cost grows steeply in both (README times a request at both bounds)
MAX_ORACLE_COLOR = 12
MAX_ORACLE_TWISTS = 12


def oracle_homfly(slope, colors):
    """Reduced j-colored HOMFLY-PT polynomials of any rational slope at
    each color j of the list colors, in the zero frame: the evaluation
    of a closable equivalent representative, corrected by its writhe
    so the unknot gives 1, and mirrored (q -> q^{-1}, a -> a^{-1}) when
    only a mirror representative closes.  The representative, its
    twist word and its writhe are found once for all the colors."""
    rep, mirrored = good_representative(slope)
    terms = cf_expand(rep)
    word, frame = twist_sequence(terms), -writhe(terms)
    return [raw_closure(word, j, frame, mirrored) for j in colors]
