"""Shared test helpers: the frozen state (the reference value type),
its thaw and freeze, the one decoder of a thawed state's records, one
kernel step on a frozen state, a state keyed
for a template and the knot route's states after each step; the skein
twist, closure and tangle element on decoded coefficients, and the
framing factor the oracle's decode applies; brute-force quiver and state expansions, the previous
recursive expansion walk, rescaled skein elements, the LaurentPoly
loops of the skein twist and closure, the previous LaurentPoly
writers, the rational-arithmetic reference for q-fraction reduction,
entry-by-entry references for the state kernel (twist, absorption,
closure with the symmetrize its balanced M needs, block templates),
the list kernel the packed one replaced, the knot route's pre-final
state, the maps on decoded quiver data that export and the mirror
replaced, the previous canonical frame and the closed states of the
export sweep, quiver data built from rows and read back as rows,
comparison of quiver data up to vertex order, continued fraction
generators, and an independent Goeritz-matrix signature oracle."""

from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from math import gcd

from quivertangle.knotpipeline import (_TRANSFORMS, _knot_bound, _reduce,
                                       delta_vector, homology_generators,
                                       knot_quiver)
from quivertangle.qseries import (LaurentPoly, ONE, QFraction, ZERO, poch_q2,
                                  q_pow, qbinom_plus, qmultinomial)
from quivertangle.quiverstate import (QuiverData, _Q_INVERT, _Thawed,
                                      _trivial, _unpacked,
                                      framing_shift,
                                      link_quiver, state_expand)
from quivertangle.skein import (SkeinElement, _evaluate_packed, _mono,
                                _unpack, basis_element, closure_numerator,
                                raw_closure, twist_matrix)
from quivertangle.tangles import (OP, RI, UP, Slope, boundary_after,
                                  cf_expand, cf_value,
                                  enumerate_rational_knots, is_knot,
                                  twist_sequence, writhe)


# The frozen form of a state: the value the tests build, compare and
# hand to the references.  Both routes run on the thawed form
# (quiverstate._Thawed); thaw and freeze convert between the two.

@dataclass(frozen=True)
class IndexRecord:
    active: bool
    extra_poch: int  # 0 or 1: membership in the extra Pochhammer numerator
    s: int  # linear exponent of -q
    a: int  # linear exponent of a

    def __post_init__(self):
        if self.extra_poch not in (0, 1):
            raise ValueError("extra_poch must be 0 or 1")


@dataclass(frozen=True)
class QuiverState:
    obj: str  # UP | OP | RI
    indices: tuple
    M: tuple  # tuple of tuples, integer, symmetric on every route

    def __post_init__(self):
        n = len(self.indices)
        if len(self.M) != n or any(len(row) != n for row in self.M):
            raise ValueError("M must be square with one row per index")

    @property
    def n(self):
        return len(self.indices)


def trivial_state():
    """The trivial upward tangle: one inactive index, all exponents 0."""
    return QuiverState(UP, (IndexRecord(False, 0, 0, 0),), ((0,),))


def _records(st):
    return [(r.active, r.extra_poch, r.s, r.a) for r in st.indices]


def thaw(st, step, wide=False):
    """A thawed copy of st for a step that adds at most step to any
    |entry|: the bound starts from st's largest |entry|, and wide raises
    it past a signed byte, so that its slots are 16 bits whatever its
    entries."""
    bound = max((max(max(row), -min(row)) for row in st.M), default=0)
    th = _Thawed(st.obj, _records(st), st.M,
                 max(bound + step, 128) if wide else bound + step)
    assert th.w == 16 or not wide
    return th


def decode_rows(rows, n, w):
    """The matrix of n offset-binary packed rows of w-bit slots as row
    tuples, each slot read by its own shift and mask."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    return tuple(tuple(((row >> (w * l)) & mask) - half for l in range(n))
                 for row in rows)


def thawed_records(th):
    """The records (active, extra_poch, s, a) of a thawed state: its
    two class lists, and s and a decoded off their packed vectors.  The
    one reader of a thawed state's records in the tests."""
    _, s, a = _unpacked(th)
    return list(zip(th.active, th.flags, s, a))


def freeze(th):
    """The frozen state of a thawed one, each row decoded once."""
    return QuiverState(th.obj, tuple(IndexRecord(*r)
                                     for r in thawed_records(th)),
                       decode_rows(th.rows, th.n, th.w))


def run_step(st, step, kernel, *args, framing=None, wide=False):
    """kernel(th, *args), one call of _twist, _absorb, _close, _resum
    or _apply_template (a pair or the knot route's closure), on a thawed
    copy of st sized for a step that adds at most step to any |entry|
    (thaw; wide for 16-bit slots).  Returns the frozen result, or, given
    the framing of a closure, the quiver data the route would export."""
    th = thaw(st, step, wide)
    kernel(th, *args)
    if framing is None:
        return freeze(th)
    th.framing = framing
    return framing_shift(th, "raw")


def keyed_state(st, key):
    """st at the boundary of the _TRANSFORMS key with the bookkeeping
    flags its template needs (on the actives for k-type, else on the
    inactives); a template's output never reads its input flags."""
    needs = _TRANSFORMS[key][0]
    return QuiverState(key[1], tuple(replace(r, extra_poch=int(
        r.active == needs)) for r in st.indices), st.M)


def reduce_steps(terms):
    """(step, frozen state) after each step of the knot route's
    paired-crossing algorithm on terms, run on one thawed state at the
    route's bound: a pair TT, RR, RT or TR (the later twist first), or
    a re-summed stretch T^x or R^x."""
    terms = list(terms)
    th = _trivial(_knot_bound(terms))
    for step in _reduce(terms, th):
        yield step, freeze(th)


def flatten(rows):
    """The entries of a matrix given as rows, as one row-major list."""
    return list(chain.from_iterable(rows))


def expand(st, N, flat=flatten):
    """quiverstate.state_expand of a frozen state, as rescaled skein
    elements with the state's boundary; flat(rows) is the form its M
    is handed over in."""
    return [SkeinElement(j, st.obj, c)
            for j, c in enumerate(state_expand(_records(st), flat(st.M), N))]


def quiver_data(Q, a_vec, q_vec, framing, convention):
    """Quiver data of Q given as rows (any iterables), held flat as
    export holds it; ValueError unless Q is square, symmetric and has
    one row per vertex."""
    rows = [tuple(row) for row in Q]
    n = len(rows)
    if any(len(row) != n for row in rows) or not (
            n == len(a_vec) == len(q_vec)):
        raise ValueError("Q, a_vec and q_vec need one entry per vertex")
    if any(rows[i][l] != rows[l][i] for i in range(n) for l in range(i)):
        raise ValueError("Q must be symmetric")
    return QuiverData(array("q", flatten(rows)), a_vec, q_vec, framing,
                      convention)


def quiver_rows(qd):
    """The rows of the quiver data's flat Q, as tuples."""
    n = qd.n
    return tuple(tuple(qd.flat[i * n:(i + 1) * n]) for i in range(n))


# The skein oracle's twist, closure and tangle element, each one call
# of the packed evaluation with its coefficients decoded

def _evaluate(e, kinds, closed=False):
    boundary, coeffs, B, low = _evaluate_packed(e, kinds, closed)
    return boundary, [_unpack(c, B, low) for c in coeffs]


def twist(e, kind):
    """Apply a top or right twist to a skein element."""
    boundary, coeffs = _evaluate(e, [kind])
    return SkeinElement(e.color, boundary, coeffs)


def close(e):
    """Close a skein element North-South; returns the reduced
    evaluation over the denominator (q^2;q^2)_j."""
    _, (total,) = _evaluate(e, [], closed=True)
    return QFraction(total, poch_q2(e.color))


def tangle_element(terms, j):
    """<tau>_j for the continued fraction [a1,...,ar]: start from
    UP[j,0] and apply a1 top twists, a2 right twists, and so on."""
    boundary, coeffs = _evaluate(basis_element(j, UP, 0),
                                 twist_sequence(terms))
    return SkeinElement(j, boundary, coeffs)


def freeze_matrix(M):
    return tuple(tuple(row) for row in M)


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


def laurent_str_reference(p):
    """LaurentPoly.__str__ as it was written before the tuple sort:
    terms by (exp_a, exp_q), each a "*"-joined list of factors."""
    if not p.terms:
        return "0"
    parts = []
    for (eq, ea) in sorted(p.terms, key=lambda k: (k[1], k[0])):
        coeff = p.terms[(eq, ea)]
        factors = []
        if eq:
            factors.append("q" if eq == 1 else f"q^{eq}")
        if ea:
            factors.append("a" if ea == 1 else f"a^{ea}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def laurent_str_joined_reference(p):
    """LaurentPoly.__str__ as it was written before the one-pass join:
    a "+ body" or "- body" string per term, joined by spaces, with the
    lead sign piece cut from the whole text."""
    if not p.terms:
        return "0"
    parts = []
    last = None
    for ea, eq, c in sorted([(ea, eq, c)
                             for (eq, ea), c in p.terms.items()]):
        if ea != last:
            last = ea
            a = "" if not ea else "a" if ea == 1 else f"a^{ea}"
        if eq:
            body = "q" if eq == 1 else f"q^{eq}"
            if a:
                body = f"{body}*{a}"
        else:
            body = a
        mag = c if c > 0 else -c
        if mag != 1:
            body = f"{mag}*{body}" if body else str(mag)
        elif not body:
            body = "1"
        parts.append(("+ " if c > 0 else "- ") + body)
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


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


def state_expand_reference(st, N):
    """Brute-force reference for quiverstate.state_expand: one full
    term, with its own Pochhammer and multinomial, per composition d of
    each color j into st.n parts."""
    S = [r.s for r in st.indices]
    A = [r.a for r in st.indices]
    K = [r.extra_poch for r in st.indices]
    act = set(actives(st.indices))
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
            coeffs[k] = (coeffs[k] + _mono(sdot, quad, adot)
                         * poch_q2(kdot) * qmultinomial(j, d))
        out.append(SkeinElement(j, st.obj, coeffs))
    return out


def state_expand_walk_reference(st, N):
    """The recursive walk quiverstate.state_expand used before its flat
    leaf loop and running linear form: every d with |d| <= N is one
    call, and each (node, index) pair sums its cross term over the
    support.  Same groups, so its output must match exactly."""
    n, M = st.n, st.M
    recs = st.indices
    groups = {}
    support = []  # (index, entry) pairs of the nonzero entries of d

    def walk(start, j, k, kdot, sdot, adot, quad):
        key = (j, k, kdot, tuple(sorted(x for _, x in support)))
        raw = groups.setdefault(key, {})
        mono = (sdot + quad, adot)
        raw[mono] = raw.get(mono, 0) + (-1 if sdot % 2 else 1)
        if j == N:
            return
        for i in range(start, n):
            r, row = recs[i], M[i]
            cross = sum((row[l] + M[l][i]) * y for l, y in support)
            for x in range(1, N - j + 1):
                support.append((i, x))
                walk(i + 1, j + x, k + x if r.active else k,
                     kdot + x * r.extra_poch, sdot + x * r.s, adot + x * r.a,
                     quad + row[i] * x * x + cross * x)
                support.pop()

    walk(0, 0, 0, 0, 0, 0, 0)
    coeffs = [[ZERO] * (j + 1) for j in range(N + 1)]
    for (j, k, kdot, parts), raw in groups.items():
        coeffs[j][k] = (coeffs[j][k] + LaurentPoly(raw) * poch_q2(kdot)
                        * qmultinomial(j, parts))
    return [SkeinElement(j, st.obj, c) for j, c in enumerate(coeffs)]


def twist_reference(e, kind):
    """twist as LaurentPoly loops over twist_matrix, the form it had
    before the packed kernel: coeff'[h] = sum_k m[h][k] coeff[k]."""
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


def close_reference(e):
    """close as a LaurentPoly loop over closure_numerator."""
    total = ZERO
    for k, c in enumerate(e.coeffs):
        if c:
            total = total + closure_numerator(e.boundary, e.color, k) * c
    return QFraction(total, poch_q2(e.color))


def framing_factor(j, n):
    """f(j)^n with f(j) = (-q)^{-j} a^{-j} q^{j^2}, the monomial
    raw_closure's decode applies for frame n."""
    return _mono(-j * n, j * j * n, -j * n)


def mirror(value):
    """q -> 1/q, a -> 1/a on a LaurentPoly or a QFraction."""
    if isinstance(value, QFraction):
        return QFraction(value.num.mirror(), value.den.mirror())
    return value.mirror()


def raw_closure_reference(terms, j):
    """skein.raw_closure through twist_reference and close_reference."""
    e = basis_element(j, UP, 0)
    for kind in twist_sequence(terms):
        e = twist_reference(e, kind)
    return close_reference(e)


def reduced_homfly(slope_or_terms, j):
    """The reduced j-colored HOMFLY-PT polynomial in the zero frame of
    the diagram of a slope's own CF, or of the given CF terms, with no
    representative substituted: raw_closure corrected by the writhe."""
    terms = (cf_expand(slope_or_terms) if isinstance(slope_or_terms, Slope)
             else list(slope_or_terms))
    return (raw_closure(twist_sequence(terms), j)
            * framing_factor(j, -writhe(terms)))


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


def delta_vector_reference(th):
    """The delta-grading q_i - Q_ii - 2 a_i of a closed state, read off
    its diagonal and records (knotpipeline.delta_vector reads it off the
    homology generators instead)."""
    return tuple(s - d - 2 * a
                 for (_, _, s, a), d in zip(thawed_records(th),
                                            _unpacked(th)[0]))


def delta_homogeneous(qd):
    """(is_homogeneous, common value or None) for the delta-grading."""
    values = set(delta_vector(homology_generators(qd)))
    if len(values) == 1:
        return True, values.pop()
    return False, None


def _row_key(qd, Q, i):
    return (qd.q_vec[i], qd.a_vec[i], Q[i][i], tuple(sorted(Q[i])))


def permute(qd, order):
    """Quiver data with its vertices listed in the given order."""
    rows = quiver_rows(qd)
    Q = [[rows[i][l] for l in order] for i in order]
    return quiver_data(Q, tuple(qd.a_vec[i] for i in order),
                       tuple(qd.q_vec[i] for i in order), qd.framing,
                       qd.color_convention)


def permutation_equal(qd1, qd2):
    """Equality of quiver data up to a simultaneous permutation of the
    vertices (backtracking on sorted-profile candidate matches)."""
    if (qd1.n != qd2.n or qd1.framing != qd2.framing
            or qd1.color_convention != qd2.color_convention):
        return False
    n = qd1.n
    Q1, Q2 = quiver_rows(qd1), quiver_rows(qd2)
    cands = [[j for j in range(n)
              if _row_key(qd1, Q1, i) == _row_key(qd2, Q2, j)]
             for i in range(n)]
    # place the most constrained vertices first
    order = sorted(range(n), key=lambda i: len(cands[i]))
    Q1 = quiver_rows(permute(qd1, order))
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
                   and (Q1[i][l] != Q2[j][perm[l]]
                        or Q1[l][i] != Q2[perm[l]][j])
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
    acc, Q = ZERO, quiver_rows(qd)
    for d in compositions(j, qd.n):
        quad = sum(Q[i][l] * d[i] * d[l]
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


# The twist, absorption and closure steps as they were before the
# in-place kernel (each step on frozen states, one new state per
# operation): the references for the kernel's equivalence test.  With
# refine=True they read a state in the balanced multinomial
# q^{-e2(d)} [j; d]_+ (e2 the second elementary symmetric polynomial),
# which close_link_reference folds back to the positive [j; d]_+ before
# closing; refine=False is the positive reading the kernel runs in.

def absorb_pochhammer_reference(st, coeff, const_a, const_q, targets, *,
                                refine=True, alpha_active=None,
                                beta_active=None):
    """Reference for quiverstate._absorb: every entry of the
    split matrix read from its parents, then the cross terms added one
    entry at a time."""
    if const_q % 2:
        raise ValueError("const_q must be even")
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("absorb targets must be distinct")
    n = st.n
    alpha_at = {t: n + i for i, t in enumerate(targets)}
    parent = list(range(n)) + targets
    m = len(parent)

    records = list(st.indices)
    if beta_active is not None:
        for t in targets:
            records[t] = replace(records[t], active=beta_active)
    for t in targets:
        r = st.indices[t]
        flag = r.active if alpha_active is None else alpha_active
        records.append(IndexRecord(flag, r.extra_poch,
                                   r.s + const_q - 1, r.a + const_a))

    M = [[st.M[parent[x]][parent[y]] for y in range(m)] for x in range(m)]
    for i, t in enumerate(targets):
        ai = alpha_at[t]
        M[ai][ai] += 1
        for tl in targets[:i]:
            for y in (tl, alpha_at[tl]):
                M[ai][y] += 1
                M[y][ai] += 1
        for y in range(m):
            c = coeff[parent[y]]
            if c:
                M[ai][y] += c
                M[y][ai] += c
        if refine:
            M[ai][t] += 1
    return QuiverState(st.obj, tuple(records), freeze_matrix(M))


def _bump_reference(M, rows, cols, delta):
    for i in rows:
        for l in cols:
            M[i][l] += delta


def _shift_records_reference(records, positions, ds=0, da=0):
    records = list(records)
    for i in positions:
        r = records[i]
        records[i] = replace(r, s=r.s + ds, a=r.a + da)
    return records


def _twist_product_reference(st, kind, refine=True):
    """The product-form twist: the rule's monomial and Pochhammer
    prefactor, then absorption."""
    act, inact = actives(st.indices), inactives(st.indices)
    allpos = list(range(st.n))
    records = list(st.indices)
    M = [list(row) for row in st.M]
    coeff = [0] * st.n

    def setc(positions, value):
        for i in positions:
            coeff[i] += value

    if kind == "T":
        targets = inact
        if st.obj == UP:
            records = _shift_records_reference(records, inact, ds=-1)
            _bump_reference(M, act, act, 1)
            const_a = 0
            setc(act, 1)
        elif st.obj in (OP, RI):
            records = _shift_records_reference(records, act, ds=1, da=1)
            _bump_reference(M, act, act, 1)
            _bump_reference(M, allpos, act, -1)
            _bump_reference(M, act, allpos, -1)
            if st.obj == OP:
                const_a = 0
                setc(act, 1)
            else:
                const_a = 1
                setc(inact, -1)
        else:
            raise ValueError(st.obj)
    elif kind == "R":
        targets = act
        if st.obj == UP:
            records = _shift_records_reference(records, allpos, ds=-1, da=-1)
            _bump_reference(M, allpos, allpos, 1)
            const_a = 1
            setc(act, -1)
        elif st.obj == OP:
            records = _shift_records_reference(records, allpos, ds=-1)
            records = _shift_records_reference(records, inact, da=-1)
            _bump_reference(M, allpos, allpos, 1)
            _bump_reference(M, allpos, act, -1)
            _bump_reference(M, act, allpos, -1)
            const_a = 0
            setc(inact, 1)
        elif st.obj == RI:
            _bump_reference(M, allpos, allpos, -1)
            const_a = 0
            setc(inact, 1)
        else:
            raise ValueError(st.obj)
    else:
        raise ValueError(f"unknown twist kind {kind!r}")

    mid = QuiverState(st.obj, tuple(records), freeze_matrix(M))
    out = absorb_pochhammer_reference(
        mid, coeff, const_a, 2, targets, refine=refine, alpha_active=True,
        beta_active=False if kind == "R" else None)
    return replace(out, obj=boundary_after(st.obj, kind))


def _ones_on_actives_reference(st, delta):
    M = [list(row) for row in st.M]
    act = actives(st.indices)
    _bump_reference(M, act, act, delta)
    return replace(st, M=freeze_matrix(M))


def apply_twist_reference(st, kind, refine=True):
    """Reference for quiverstate._twist: the product twist
    conjugated by the q^{k^2} bridge, one frozen state per step."""
    out = _twist_product_reference(_ones_on_actives_reference(st, 1), kind,
                                   refine=refine)
    return _ones_on_actives_reference(out, -1)


def _fold_multinomial_reference(M, n):
    for i in range(n):
        for l in range(i + 1, n):
            M[i][l] -= 1


def symmetrize(M):
    """(M + M^t) / 2 as a tuple of tuples; raises ArithmeticError on an
    odd off-diagonal sum M_il + M_li."""
    n = len(M)
    Q = [[0] * n for _ in range(n)]
    for i in range(n):
        Q[i][i] = M[i][i]
        for l in range(i + 1, n):
            tot = M[i][l] + M[l][i]
            if tot % 2:
                raise ArithmeticError(
                    f"odd symmetrized entry at ({i},{l}): {tot}")
            Q[i][l] = Q[l][i] = tot // 2
    return freeze_matrix(Q)


def close_link_reference(st, framing=0):
    """Reference for quiverstate._close and its export on a state in
    the balanced reading: the fold (M minus the strictly-upper all-ones
    form) turns it into the positive one, then the closure absorbs
    through absorb_pochhammer_reference."""
    if st.obj not in (UP, OP):
        raise ValueError(f"cannot close {st.obj} North-South")
    if any(r.extra_poch for r in st.indices):
        raise ValueError("flagged index")
    act, inact = actives(st.indices), inactives(st.indices)
    allpos = list(range(st.n))
    records = list(st.indices)
    M = [list(row) for row in st.M]
    _fold_multinomial_reference(M, st.n)
    if st.obj == UP:
        records = _shift_records_reference(records, allpos, da=-1)
        _bump_reference(M, allpos, allpos, 1)
        _bump_reference(M, act, act, 1)
        mid = QuiverState(st.obj, tuple(records), freeze_matrix(M))
        coeff = [-2 if r.active else -1 for r in mid.indices]
        out = absorb_pochhammer_reference(mid, coeff, 2, 2, allpos,
                                          refine=False)
    else:
        records = _shift_records_reference(records, inact, da=-1)
        _bump_reference(M, inact, inact, 1)
        mid = QuiverState(st.obj, tuple(records), freeze_matrix(M))
        coeff = [0 if r.active else 1 for r in mid.indices]
        mid = absorb_pochhammer_reference(mid, coeff, 0, 2, act,
                                          refine=False)
        out = absorb_pochhammer_reference(mid, [-1] * mid.n, 2, 2, inact,
                                          refine=False)
    return quiver_data(symmetrize(out.M),
                       tuple(r.a for r in out.indices),
                       tuple(r.s for r in out.indices), framing,
                       "antisymmetric")


def apply_template_reference(st, key):
    """Reference for knotpipeline._apply_template: the output matrix
    filled one entry at a time."""
    _, out_obj, blocks, mspec = _TRANSFORMS[key]
    members = {"+": actives(st.indices), "-": inactives(st.indices)}
    records, spans = [], []
    for active, kflag, src, ds, da in blocks:
        spans.append((len(records), members[src]))
        for i in members[src]:
            r = st.indices[i]
            records.append(IndexRecord(bool(active), kflag,
                                       r.s + ds, r.a + da))
    M = [[0] * len(records) for _ in records]
    for (rpos, rows), mrow in zip(spans, mspec):
        for (cpos, cols), (shift, tri) in zip(spans, mrow):
            for i, x in enumerate(rows):
                base, out = st.M[x], M[rpos + i]
                for l, y in enumerate(cols):
                    v = base[y] + shift
                    if tri == "L" and i > l:
                        v += 1
                    elif tri == "U" and i < l:
                        v += 1
                    out[cpos + l] = v
    return QuiverState(out_obj or st.obj, tuple(records), freeze_matrix(M))


# The maps on decoded quiver data that export ran before it worked on
# the packed rows: the references for framing_shift, q_invert and the
# mirror, which act on a closed state.  The references take the shift f
# from the frame of the data, where export takes the output frame.

def affine_reference(qd, sigma, c, e, q_shift, a_vec, framing, convention):
    """The one family of maps on quiver data: Q_il -> sigma Q_il + c +
    e [i = l] and q_i -> sigma q_i + q_shift (sigma = +-1), with a_vec,
    framing and color convention as given, one entry at a time."""
    Q = []
    for i, row in enumerate(quiver_rows(qd)):
        row = [x + c for x in row] if sigma > 0 else [c - x for x in row]
        row[i] += e
        Q.append(tuple(row))
    q_vec = (tuple(x + q_shift for x in qd.q_vec) if sigma > 0
             else tuple(q_shift - x for x in qd.q_vec))
    return quiver_data(Q, a_vec, q_vec, framing, convention)


def framing_shift_reference(qd, f):
    """Reference for framing_shift on antisymmetric quiver data; the
    rule holds in that convention only, so symmetric data is refused."""
    if qd.color_convention != "antisymmetric":
        raise ValueError("framing_shift needs data in the antisymmetric "
                         "color convention")
    if not f:
        return qd
    return affine_reference(qd, 1, f, 0, -f, tuple(x - f for x in qd.a_vec),
                            qd.framing + f, qd.color_convention)


def q_invert_reference(qd, f=0):
    """Reference for q_invert: the switch to the symmetric convention
    after a framing shift by f, on antisymmetric quiver data."""
    if qd.color_convention != "antisymmetric":
        raise ValueError("data already in symmetric-color convention")
    sigma, c, e = _Q_INVERT
    return affine_reference(qd, sigma, sigma * f + c, e, f,
                            tuple(x - f for x in qd.a_vec), qd.framing + f,
                            "symmetric")


def canonical_shift_reference(qd, symmetric):
    """The framing shift to the canonical frame, read off decoded quiver
    data with each row built with its diagonal entry replaced: the
    reference for the one export reads off the least entry of its flat
    buffer."""
    sigma, c, e = (-1, -1, 1) if symmetric else (1, 0, 0)
    pick = min if sigma > 0 else max
    extreme = pick(pick(row[:i] + (row[i] + sigma * e,) + row[i + 1:])
                   for i, row in enumerate(quiver_rows(qd)))
    return -extreme - sigma * c


def export_quivers():
    """(slope, closed state) of both routes on the exported-bytes sweep:
    the link route on every link slope with even p <= 16, both routes on
    every knot up to 9 crossings."""
    links = [Slope(p, q) for p in range(2, 17, 2) for q in range(1, p)
             if gcd(p, q) == 1]
    knots = enumerate_rational_knots(9)
    return ([(s, link_quiver(s)) for s in links + knots]
            + [(s, knot_quiver(s)) for s in knots])


# The list kernel the routes ran before M was packed: in place on a list
# of IndexRecords and a list of row lists, one Python operation per
# entry.  The references for the packed kernel's equivalence tests.

def actives(records):
    return [i for i, r in enumerate(records) if r.active]


def inactives(records):
    return [i for i, r in enumerate(records) if not r.active]


def bump_list(M, rows, cols, delta):
    if len(cols) == len(M):  # distinct positions: every column
        for i in rows:
            M[i] = [v + delta for v in M[i]]
        return
    for i in rows:
        row = M[i]
        for l in cols:
            row[l] += delta


def _shift_list(records, positions, ds=0, da=0):
    for i in positions:
        r = records[i]
        records[i] = IndexRecord(r.active, r.extra_poch, r.s + ds, r.a + da)


def absorb_list(records, M, coeff, const_a, const_q, targets,
                alpha_active=None, beta_active=None):
    n = len(records)
    for t in targets:
        r = records[t]
        flag = r.active if alpha_active is None else alpha_active
        records.append(IndexRecord(flag, r.extra_poch,
                                   r.s + const_q - 1, r.a + const_a))
    if beta_active is not None:
        for t in targets:
            r = records[t]
            records[t] = IndexRecord(beta_active, r.extra_poch, r.s, r.a)
    for row in M:
        row.extend([row[t] for t in targets])
    coeff = [*coeff, *(coeff[t] for t in targets)]
    add = coeff[:n] + [c + 1 for c in coeff[n:]]
    for t in targets:
        M.append([v + c for v, c in zip(M[t], add)])
        add[t] += 1
    for row, c in zip(M, coeff):
        if c:
            row[n:] = [v + c for v in row[n:]]
    for i, t in enumerate(targets, n + 1):
        row = M[t]
        row[i:] = [v + 1 for v in row[i:]]


def twist_list(obj, records, M, kind):
    """The twist in place; returns the boundary after it."""
    act, inact = actives(records), inactives(records)
    allpos = range(len(records))
    if kind == "T":
        targets = inact
        if obj == UP:
            _shift_list(records, inact, ds=-1)
            bump_list(M, act, act, 2)
            const_a = 0
            coeff = [1 if r.active else 0 for r in records]
        elif obj in (OP, RI):
            _shift_list(records, act, ds=1, da=1)
            bump_list(M, act, act, 2)
            bump_list(M, allpos, act, -1)
            bump_list(M, act, allpos, -1)
            if obj == OP:
                const_a = 0
                coeff = [1 if r.active else 0 for r in records]
            else:
                const_a = 1
                coeff = [0 if r.active else -1 for r in records]
        else:
            raise ValueError(obj)
    elif kind == "R":
        targets = act
        bump_list(M, act, act, 1)
        if obj == UP:
            _shift_list(records, allpos, ds=-1, da=-1)
            bump_list(M, allpos, allpos, 1)
            const_a = 1
            coeff = [-1 if r.active else 0 for r in records]
        elif obj == OP:
            _shift_list(records, allpos, ds=-1)
            _shift_list(records, inact, da=-1)
            bump_list(M, allpos, allpos, 1)
            bump_list(M, allpos, act, -1)
            bump_list(M, act, allpos, -1)
            const_a = 0
            coeff = [0 if r.active else 1 for r in records]
        elif obj == RI:
            bump_list(M, allpos, allpos, -1)
            const_a = 0
            coeff = [0 if r.active else 1 for r in records]
        else:
            raise ValueError(obj)
    else:
        raise ValueError(f"unknown twist kind {kind!r}")
    absorb_list(records, M, coeff, const_a, 2, targets, True,
                False if kind == "R" else None)
    act = actives(records)
    bump_list(M, act, act, -1)
    return boundary_after(obj, kind)


def close_list(obj, records, M):
    """The closure of an UP or OP state in place, before export."""
    act, inact = actives(records), inactives(records)
    allpos = range(len(records))
    if obj == UP:
        _shift_list(records, allpos, da=-1)
        bump_list(M, allpos, allpos, 1)
        bump_list(M, act, act, 1)
        coeff = [-2 if r.active else -1 for r in records]
        absorb_list(records, M, coeff, 2, 2, list(allpos))
    else:
        _shift_list(records, inact, da=-1)
        bump_list(M, inact, inact, 1)
        coeff = [0 if r.active else 1 for r in records]
        absorb_list(records, M, coeff, 0, 2, act)
        absorb_list(records, M, [-1] * len(records), 2, 2, inact)


def class_step(st, absorb, targets, coeff, const_a, ds, da, bump, twist):
    """The frozen state after one step of quiverstate._absorb, run on an
    entry-by-entry absorb kernel: the per-class record shifts and bumps
    applied one index and one entry at a time, the per-class
    coefficients expanded into one per index, absorb(state, coeff list,
    const_a, targets, alpha_active, beta_active) (the list kernel or the
    reference, const_q = 2), then bridge on every entry of two indices
    active afterwards.  A twist has active alphas, inactive betas and
    bridge -1; any other step keeps each half's class and bridges 0."""
    bridge, alpha_active, beta_active = ((-1, True, False) if twist
                                         else (0, None, None))
    records, M = list(st.indices), [list(row) for row in st.M]
    for c in (False, True):
        members = [i for i, r in enumerate(st.indices) if r.active == c]
        _shift_list(records, members, ds[c], da[c])
        for d in (False, True):
            bump_list(M, members,
                      [i for i, r in enumerate(st.indices) if r.active == d],
                      bump[c][d])
    out = absorb(QuiverState(st.obj, tuple(records), freeze_matrix(M)),
                 [coeff[r.active] for r in st.indices], const_a, targets,
                 alpha_active, beta_active)
    M = [list(row) for row in out.M]
    act = actives(out.indices)
    bump_list(M, act, act, bridge)
    return replace(out, M=freeze_matrix(M))


def absorb_list_frozen(st, coeff, const_a, targets, alpha_active,
                       beta_active):
    """absorb_list (const_q = 2) on a copy of a frozen state."""
    records, M = list(st.indices), [list(row) for row in st.M]
    absorb_list(records, M, coeff, const_a, 2, targets, alpha_active,
                beta_active)
    return QuiverState(st.obj, tuple(records), freeze_matrix(M))


def absorb_reference_positive(st, coeff, const_a, targets, alpha_active,
                              beta_active):
    """absorb_pochhammer_reference (const_q = 2) in the positive
    reading the kernel runs in."""
    return absorb_pochhammer_reference(
        st, coeff, const_a, 2, targets, refine=False,
        alpha_active=alpha_active, beta_active=beta_active)


def apply_template_list(st, key):
    """The block transform _TRANSFORMS[key] of a frozen state, one
    segment of row list per output block."""
    _, out_obj, blocks, mspec = _TRANSFORMS[key]
    members = {"+": actives(st.indices), "-": inactives(st.indices)}
    records, sources = [], []
    for active, kflag, src, ds, da in blocks:
        sources.append(members[src])
        for i in members[src]:
            r = st.indices[i]
            records.append(IndexRecord(bool(active), kflag,
                                       r.s + ds, r.a + da))
    M = []
    for rows, mrow in zip(sources, mspec):
        for i, x in enumerate(rows):
            base, out = st.M[x], []
            for cols, (shift, tri) in zip(sources, mrow):
                seg = [base[y] + shift for y in cols]
                if tri:
                    ones = range(i) if tri == "L" else range(i + 1, len(seg))
                    for l in ones:
                        seg[l] += 1
                out += seg
            M.append(tuple(out))
    return QuiverState(out_obj or st.obj, tuple(records), tuple(M))


def reduce_cf(terms):
    """The pre-final state of reduce_steps: the state after its last
    step, or the trivial state when there is none."""
    st = trivial_state()
    for _, st in reduce_steps(terms):
        pass
    return st


def mirror_quiver(qd, *, polynomial):
    """The data-level mirror quiver_route applies to packed rows before
    their decode (see quiverstate._mirror): the reference for it."""
    if qd.color_convention != "antisymmetric":
        raise ValueError("mirror acts on antisymmetric-convention data")
    sigma, c, e = _Q_INVERT if polynomial else (-1, 0, 1)
    return affine_reference(qd, sigma, c, e, 0 if polynomial else 1,
                            tuple(-x for x in qd.a_vec), -qd.framing,
                            qd.color_convention)
