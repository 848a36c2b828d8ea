"""Shared test helpers: brute-force quiver and state expansions, the
previous recursive expansion walk, rescaled skein elements, the
LaurentPoly loops of the skein twist and closure, the
rational-arithmetic reference for q-fraction reduction, entry-by-entry
references for the state kernel (twist, absorption, closure, block
templates), the previous canonical frame and the quivers of the export
sweep, comparison of quiver data up to vertex order, continued
fraction generators, and an independent Goeritz-matrix signature
oracle."""

from dataclasses import replace
from fractions import Fraction
from math import gcd

from quivertangle.knotpipeline import _TRANSFORMS, delta_vector, knot_quiver
from quivertangle.qseries import (LaurentPoly, ONE, QFraction, ZERO, poch_q2,
                                  q_pow, qbinom_plus, qmultinomial)
from quivertangle.quiverstate import (IndexRecord, QuiverData, QuiverState,
                                      _freeze, link_quiver, symmetrize)
from quivertangle.skein import (SkeinElement, _mono, basis_element,
                                closure_numerator, twist_matrix)
from quivertangle.tangles import (OP, RI, UP, Slope, boundary_after,
                                  cf_value, enumerate_rational_knots, is_knot,
                                  twist_sequence)


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


def state_expand_reference(st, N):
    """Brute-force reference for quiverstate.state_expand: one full
    term, with its own Pochhammer and multinomial, per composition d of
    each color j into st.n parts."""
    S = [r.s for r in st.indices]
    A = [r.a for r in st.indices]
    K = [r.extra_poch for r in st.indices]
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
    """skein.twist as LaurentPoly loops over twist_matrix, the form it
    had before the packed kernel: coeff'[h] = sum_k m[h][k] coeff[k]."""
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
    """skein.close as a LaurentPoly loop over closure_numerator."""
    total = ZERO
    for k, c in enumerate(e.coeffs):
        if c:
            total = total + closure_numerator(e.boundary, e.color, k) * c
    return QFraction(total, poch_q2(e.color))


def raw_closure_reference(terms, j):
    """skein.raw_closure through twist_reference and close_reference."""
    e = basis_element(j, UP, 0)
    for kind in twist_sequence(terms):
        e = twist_reference(e, kind)
    return close_reference(e)


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
    """Reference for quiverstate.absorb_pochhammer: every entry of the
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
    return QuiverState(st.obj, tuple(records), _freeze(M))


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
    act, inact = st.actives(), st.inactives()
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

    mid = QuiverState(st.obj, tuple(records), _freeze(M))
    out = absorb_pochhammer_reference(
        mid, coeff, const_a, 2, targets, refine=refine, alpha_active=True,
        beta_active=False if kind == "R" else None)
    return replace(out, obj=boundary_after(st.obj, kind))


def _ones_on_actives_reference(st, delta):
    M = [list(row) for row in st.M]
    act = st.actives()
    _bump_reference(M, act, act, delta)
    return replace(st, M=_freeze(M))


def apply_twist_reference(st, kind, refine=True):
    """Reference for quiverstate.apply_twist: the product twist
    conjugated by the q^{k^2} bridge, one frozen state per step."""
    out = _twist_product_reference(_ones_on_actives_reference(st, 1), kind,
                                   refine=refine)
    return _ones_on_actives_reference(out, -1)


def _fold_multinomial_reference(M, n):
    for i in range(n):
        for l in range(i + 1, n):
            M[i][l] -= 1


def close_link_reference(st, framing=0):
    """Reference for quiverstate.close_link on a state in the balanced
    reading: the fold (M minus the strictly-upper all-ones form) turns it
    into the positive one, then the closure absorbs through
    absorb_pochhammer_reference."""
    if st.obj not in (UP, OP):
        raise ValueError(f"cannot close {st.obj} North-South")
    if any(r.extra_poch for r in st.indices):
        raise ValueError("flagged index")
    act, inact = st.actives(), st.inactives()
    allpos = list(range(st.n))
    records = list(st.indices)
    M = [list(row) for row in st.M]
    _fold_multinomial_reference(M, st.n)
    if st.obj == UP:
        records = _shift_records_reference(records, allpos, da=-1)
        _bump_reference(M, allpos, allpos, 1)
        _bump_reference(M, act, act, 1)
        mid = QuiverState(st.obj, tuple(records), _freeze(M))
        coeff = [-2 if r.active else -1 for r in mid.indices]
        out = absorb_pochhammer_reference(mid, coeff, 2, 2, allpos,
                                          refine=False)
    else:
        records = _shift_records_reference(records, inact, da=-1)
        _bump_reference(M, inact, inact, 1)
        mid = QuiverState(st.obj, tuple(records), _freeze(M))
        coeff = [0 if r.active else 1 for r in mid.indices]
        mid = absorb_pochhammer_reference(mid, coeff, 0, 2, act,
                                          refine=False)
        out = absorb_pochhammer_reference(mid, [-1] * mid.n, 2, 2, inact,
                                          refine=False)
    return QuiverData(symmetrize([list(r) for r in out.M]),
                      tuple(r.a for r in out.indices),
                      tuple(r.s for r in out.indices), framing,
                      "antisymmetric")


def apply_template_reference(st, key):
    """Reference for knotpipeline._apply_template: the output matrix
    filled one entry at a time."""
    out_obj, blocks, mspec = _TRANSFORMS[key]
    members = {"+": st.actives(), "-": st.inactives()}
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
    return QuiverState(out_obj or st.obj, tuple(records), _freeze(M))


def canonical_shift_reference(qd, symmetric):
    """The previous quiverstate.canonical_shift, which builds each row
    with its diagonal entry replaced: the reference for the one that
    reads the diagonal and the strict upper triangle."""
    sigma, c, e = (-1, -1, 1) if symmetric else (1, 0, 0)
    pick = min if sigma > 0 else max
    extreme = pick(pick(row[:i] + (row[i] + sigma * e,) + row[i + 1:])
                   for i, row in enumerate(qd.Q))
    return -extreme - sigma * c


def export_quivers():
    """Both routes' quivers on the exported-bytes sweep: the link route
    on every link slope with even p <= 16, both routes on every knot up
    to 9 crossings."""
    links = [Slope(p, q) for p in range(2, 17, 2) for q in range(1, p)
             if gcd(p, q) == 1]
    knots = enumerate_rational_knots(9)
    return ([link_quiver(s) for s in links + knots]
            + [knot_quiver(s) for s in knots])
