"""Shared test helpers: brute-force quiver and state expansions,
rescaled skein elements, the rational-arithmetic reference for
q-fraction reduction, comparison of quiver data up to vertex order,
continued fraction generators, and an independent Goeritz-matrix
signature oracle."""

from dataclasses import replace
from fractions import Fraction
from math import gcd

from quivertangle.knotpipeline import delta_vector
from quivertangle.qseries import (LaurentPoly, ONE, QFraction, ZERO, poch_q2,
                                  q_pow, qbinom_plus, qmultinomial)
from quivertangle.quiverstate import _freeze, bal_multinomial
from quivertangle.skein import SkeinElement, _mono
from quivertangle.tangles import cf_value, is_knot


def neg_q_pow(n):
    """(-q)^n as a LaurentPoly, stored as (-1)^n q^n."""
    return LaurentPoly.mono(-1 if n % 2 else 1, n, 0)


def q_gcd_reference(f, g):
    """gcd of two nonzero q-only LaurentPolys by Euclid over the
    rationals, made primitive with positive lead and lowest exponent 0:
    the reference for qseries._q_gcd."""

    def to_vec(p):
        exps = sorted(eq for eq, _ in p.terms)
        lo = exps[0]
        vec = [0] * (exps[-1] - lo + 1)
        for (eq, _), c in p.terms.items():
            vec[eq - lo] = c
        return vec

    a = [Fraction(c) for c in to_vec(f)]
    b = [Fraction(c) for c in to_vec(g)]
    while b and any(b):
        # a mod b
        while len(a) >= len(b) and any(a):
            if not a[-1]:
                a.pop()
                continue
            f_ = a[-1] / b[-1]
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] -= f_ * bc
            a.pop()
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    denom = 1
    for c in a:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in a]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    out = LaurentPoly()
    out.terms = {(i, 0): c for i, c in enumerate(ints) if c}
    return out


def reduce_fraction_reference(num, den):
    """Reference for qseries._reduce_fraction: cancel the rational gcd
    of den and every a-slice of num, then shift den to lowest
    q-exponent 0 and make its lead positive.  An integer content common
    to num and den is left in place."""
    if num.is_zero():
        return ZERO, ONE
    g = den
    for sl in num.a_slices().values():
        g = q_gcd_reference(g, sl)
        if g.is_one() or len(g.terms) == 1:
            break
    if not g.is_one():
        num = num.divide_exact(g)
        den = den.divide_exact(g)
    dmin = min(eq for eq, _ in den.terms)
    if dmin:
        shift = LaurentPoly.mono(1, -dmin, 0)
        num = num * shift
        den = den * shift
    lead = den.terms[max(den.terms, key=lambda k: k[0])]
    if lead < 0:
        num, den = -num, -den
    return num, den


def compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def state_expand_reference(st, N, balanced=True):
    """Brute-force reference for quiverstate.state_expand: one full
    term, with its own Pochhammer and multinomial, per composition d of
    each color j into st.n parts."""
    S, A, K = st.s_vec(), st.a_vec(), st.k_vec()
    act = set(st.actives())
    out = []
    for j in range(N + 1):
        coeffs = [ZERO] * (j + 1)
        for d in compositions(j, st.n):
            k = sum(x for i, x in enumerate(d) if i in act)
            sdot = sum(s * x for s, x in zip(S, d))
            adot = sum(a * x for a, x in zip(A, d))
            quad = sum(st.M[i][l] * d[i] * d[l]
                       for i in range(st.n) for l in range(st.n))
            kdot = sum(kk * x for kk, x in zip(K, d))
            mult = bal_multinomial(j, d) if balanced else qmultinomial(j, d)
            coeffs[k] = (coeffs[k]
                         + _mono(sdot, quad, adot) * poch_q2(kdot) * mult)
        out.append(SkeinElement(j, st.obj, coeffs))
    return out


def balanced_from_plus(j, k):
    """Balanced q-binomial q^{-k(j-k)} [j,k]_+."""
    if not 0 <= k <= j:
        raise ValueError("need 0 <= k <= j")
    return q_pow(-k * (j - k)) * qbinom_plus(j, k)


def rescale(e):
    """Multiply coefficient k of a skein element by [j,k]_+: the form
    state expansions reproduce."""
    return SkeinElement(e.color, e.boundary,
                        [c * qbinom_plus(e.color, k)
                         for k, c in enumerate(e.coeffs)])


def delta_homogeneous(qd):
    """(is_homogeneous, common value or None) for the delta-grading."""
    values = set(delta_vector(qd))
    if len(values) == 1:
        return True, values.pop()
    return False, None


def _row_key(qd, i):
    return (qd.q_vec[i], qd.a_vec[i], qd.Q[i][i],
            tuple(sorted(qd.Q[i])))


def permute(qd, order):
    """Quiver data with its vertices listed in the given order."""
    Q = [[qd.Q[i][l] for l in order] for i in order]
    return replace(qd, Q=_freeze(Q),
                   a_vec=tuple(qd.a_vec[i] for i in order),
                   q_vec=tuple(qd.q_vec[i] for i in order))


def permutation_equal(qd1, qd2):
    """Equality of quiver data up to a simultaneous permutation of the
    vertices (backtracking on sorted-profile candidate matches)."""
    if (qd1.n != qd2.n or qd1.framing != qd2.framing
            or qd1.color_convention != qd2.color_convention):
        return False
    n = qd1.n
    cands = [[j for j in range(n) if _row_key(qd1, i) == _row_key(qd2, j)]
             for i in range(n)]
    # place the most constrained vertices first
    order = sorted(range(n), key=lambda i: len(cands[i]))
    qd1 = permute(qd1, order)
    cands = [cands[i] for i in order]
    perm = [None] * n
    used = [False] * n

    def place(i):
        if i == n:
            return True
        for j in cands[i]:
            if used[j]:
                continue
            if any(perm[l] is not None
                   and (qd1.Q[i][l] != qd2.Q[j][perm[l]]
                        or qd1.Q[l][i] != qd2.Q[perm[l]][j])
                   for l in range(n)):
                continue
            perm[i] = j
            used[j] = True
            if place(i + 1):
                return True
            perm[i] = None
            used[j] = False
        return False

    return place(0)


def quiver_numerator(qd, j):
    """sum over |d| = j of (-q)^{q.d} q^{d.Q.d} a^{a.d} [j; d]_+, the
    cleared coefficient of x^j of the quiver generating function."""
    acc = ZERO
    for d in compositions(j, qd.n):
        quad = sum(qd.Q[i][l] * d[i] * d[l]
                   for i in range(qd.n) for l in range(qd.n)
                   if d[i] and d[l])
        sdot = sum(s * x for s, x in zip(qd.q_vec, d))
        adot = sum(a * x for a, x in zip(qd.a_vec, d))
        acc = acc + _mono(sdot, quad, adot) * qmultinomial(j, d)
    return acc


def knot_route_poly(qd, j):
    """P_j encoded by knot-route data (coefficient times (q^2;q^2)_j)."""
    return QFraction(quiver_numerator(qd, j))


def link_route_coeff(qd, j):
    """Coefficient of x^j encoded by link-route data (equals P_j)."""
    return QFraction(quiver_numerator(qd, j), poch_q2(j))


def odd_cfs(max_sum, min_sum=1):
    """All odd-length continued fractions [a1,...,ar], ai >= 1, with
    min_sum <= sum ai <= max_sum, in deterministic order."""
    out = []

    def rec(prefix, left):
        if prefix and len(prefix) % 2 == 1:
            out.append(list(prefix))
        if len(prefix) >= 1 and left == 0:
            return
        for t in range(1, left + 1):
            prefix.append(t)
            rec(prefix, left - t)
            prefix.pop()

    rec([], max_sum)
    return [cf for cf in out if sum(cf) >= min_sum]


def distinct_slopes(max_sum, knots=None):
    """Deduplicated slopes of odd_cfs(max_sum); knots=True/False filters
    by connectivity."""
    seen = {}
    for cf in odd_cfs(max_sum):
        s = cf_value(cf)
        if s not in seen:
            seen[s] = cf
    items = sorted(seen, key=lambda s: (s.p, s.q))
    if knots is None:
        return items
    return [s for s in items if is_knot(s) == knots]


def _nearest_even(t):
    """Nearest even integer to the Fraction t (ties round up)."""
    return 2 * int((t / 2 + Fraction(1, 2)).__floor__())


def even_twist_terms(slope):
    """Expansion p/q' = 2b_1 - 1/(2b_2 - ...) with all-even terms,
    where q' is q or q - p (both tangles close to the same knot).
    Returns the list [2b_1, ..., 2b_m]."""
    p, q = slope.p, slope.q
    assert p % 2 == 1, "even-term expansion needs a knot"
    if q % 2 == 1:
        q = q - p
    terms = []
    num, den = p, q
    guard = 0
    while den:
        b = _nearest_even(Fraction(num, den))
        assert b % 2 == 0 and b != 0
        terms.append(b)
        num, den = den, b * den - num
        guard += 1
        assert guard < 200, "even-term expansion did not terminate"
    return terms


def tridiag_signature(diag):
    """Signature of the symmetric tridiagonal matrix with the given
    diagonal and unit off-diagonal, by exact principal-minor sign
    counting (Jacobi's rule; an isolated zero minor contributes one
    eigenvalue of each sign)."""
    minors = [1]
    prev2, prev = 0, 1
    for d in diag:
        prev2, prev = prev, d * prev - prev2
        minors.append(prev)
    assert minors[-1] != 0
    pos = neg = 0
    sprev = 1
    zero_pending = False
    for cur in minors[1:]:
        if cur == 0:
            zero_pending = True
            continue
        s = 1 if cur > 0 else -1
        if zero_pending:
            pos += 1
            neg += 1
            zero_pending = False
        elif s == sprev:
            pos += 1
        else:
            neg += 1
        sprev = s
    assert not zero_pending
    return pos - neg


def goeritz_signature(slope):
    """Independent knot-signature oracle: signature of the tridiagonal
    form built from the all-even twist expansion."""
    return tridiag_signature(even_twist_terms(slope))
