"""Independent oracle for reduced colored HOMFLY-PT polynomials of
rational links, computed directly from the basis-web twist and closure
rules.

A color-j skein element of a 4-ended tangle is a vector of j+1
coefficients over the basis webs UP[j,k], OP[j,k] or RI[j,k].  Top (T)
and right (R) twists act by explicit linear maps; closing the tangle
evaluates to a scalar.  The computation is per color and never builds
generating functions, which keeps it independent from the quiver-state
pipeline it cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qseries import (LaurentPoly, QFraction, ZERO, a_pow, pochhammer,
                      poch_q2, q_pow, qbinom_plus)
from .tangles import (OP, RI, UP, Slope, boundary_after, boundary_walk,
                      cf_expand, good_representative, twist_sequence)


@dataclass
class SkeinElement:
    color: int
    boundary: str  # UP | OP | RI
    coeffs: list  # j+1 LaurentPoly values, coefficient of X[j,k]

    def __post_init__(self):
        if len(self.coeffs) != self.color + 1:
            raise ValueError("a color-j element has j+1 coefficients")


def basis_element(j, boundary=UP, k=0):
    coeffs = [ZERO] * (j + 1)
    coeffs[k] = LaurentPoly.mono(1)
    return SkeinElement(j, boundary, coeffs)


def _mono(sign_exp, q_exp, a_exp):
    """(-q)^sign_exp * q^q_exp * a^a_exp as a LaurentPoly."""
    return LaurentPoly.mono(-1 if sign_exp % 2 else 1,
                            sign_exp + q_exp, a_exp)


def twist_matrix(boundary, kind, j):
    """Column h of the matrix carries the image of X[j,k]: entries
    m[h][k] with new element coeff'[h] = sum_k m[h][k] coeff[k]."""
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
    return m


def twist(e, kind):
    """Apply a top or right twist to a skein element."""
    j = e.color
    m = twist_matrix(e.boundary, kind, j)
    coeffs = []
    for h in range(j + 1):
        acc = ZERO
        for k in range(j + 1):
            if e.coeffs[k] and m[h][k]:
                acc = acc + m[h][k] * e.coeffs[k]
        coeffs.append(acc)
    return SkeinElement(j, boundary_after(e.boundary, kind), coeffs)


def closure_scalar(boundary, j, k):
    """Reduced North-South evaluation of the closed basis web X[j,k], a
    QFraction.  RI webs do not close North-South."""
    if boundary == UP:
        num = (a_pow(-j) * q_pow(j * j + k * k)
               * pochhammer(LaurentPoly.mono(1, 2 - 2 * j - 2 * k, 2), 2, j)
               * qbinom_plus(j, k))
        return QFraction(num, poch_q2(j))
    if boundary == OP:
        num = (a_pow(k - j) * q_pow((j - k) ** 2)
               * pochhammer(LaurentPoly.mono(1, 2 - 2 * j, 2), 2, j - k)
               * qbinom_plus(j, k))
        return QFraction(num, poch_q2(j - k))
    raise ValueError(f"{boundary} does not close North-South")


def close(e):
    """Close a skein element North-South; returns the reduced
    evaluation."""
    total = QFraction(0)
    for k, c in enumerate(e.coeffs):
        if c:
            total = total + closure_scalar(e.boundary, e.color, k) * c
    return total


def tangle_element(terms, j):
    """<tau>_j for the continued fraction [a1,...,ar]: start from
    UP[j,0] and apply a1 top twists, a2 right twists, and so on."""
    e = basis_element(j, UP, 0)
    for kind in twist_sequence(terms):
        e = twist(e, kind)
    return e


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
    """Writhe of the standard diagram built from the CF terms."""
    return sum(WRITHE_SIGN[step] for step in boundary_walk(terms))


def framing_factor(j, n):
    """f(j)^n with f(j) = (-q)^{-j} a^{-j} q^{j^2}."""
    return _mono(-j * n, j * j * n, -j * n)


def raw_closure(terms, j):
    """Reduced evaluation of the closed tangle, in the diagram frame."""
    e = tangle_element(terms, j)
    if e.boundary == RI:
        raise ValueError("odd-length CF cannot end on an RI boundary")
    return close(e)


def reduced_homfly(slope, j):
    """Reduced j-colored HOMFLY-PT polynomial of the rational link p/q
    in the zero frame: the diagram evaluation corrected by the writhe,
    so the unknot gives 1."""
    terms = cf_expand(slope) if isinstance(slope, Slope) else list(slope)
    return raw_closure(terms, j) * framing_factor(j, -writhe(terms))


def oracle_homfly(slope, j):
    """Reduced j-colored HOMFLY-PT polynomial for any rational slope,
    in the zero frame: substitutes a closable equivalent representative,
    mirroring the result (q -> q^{-1}, a -> a^{-1}) when only a mirror
    representative closes."""
    rep, mirrored = good_representative(slope)
    value = reduced_homfly(rep, j)
    return value.mirror() if mirrored else value
