"""Generating-function states for rescaled skein evaluations.

A state encodes the multi-index sum

    sum_d (-q)^{S.d} a^{A.d} q^{d.M.d^t} (q^2;q^2)_{K.d}
          * [sum d; d]_+ * X[sum d, sum_active d]

through an ordered list of index records (active flag, membership flag K
in the single extra Pochhammer numerator, linear -q exponent s, linear a
exponent a) and an integer matrix M for the quadratic q-exponent.
[j; d]_+ is the positive q-multinomial, the one the quiver series of
the exported data reads, so closure exports M as it stands.

Twists act in "product form": multiply by a twist-dependent monomial and
Pochhammer symbol, then absorb the Pochhammer by splitting summation
indices.  The product form accumulates an extra q^{k^2} (k = sum of
active indices) relative to the plain twist action; `_twist` bridges
between the two forms by adding/removing an all-ones block on the
active indices of M.

The public operations (`apply_twist`, `absorb_pochhammer`,
`close_link`) take frozen states and return new frozen states or quiver
data.  Underneath, `_twist`, `_absorb` and `_close` work in place on a
thawed copy: a list of records and a list of row lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qseries import LaurentPoly, ZERO, poch_q2, qmultinomial
from .skein import SkeinElement, writhe
from .tangles import (OP, RI, UP, boundary_after, cf_value, resolve_terms,
                      twist_sequence)


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
    M: tuple  # tuple of tuples, integer, not necessarily symmetric

    def __post_init__(self):
        n = len(self.indices)
        if len(self.M) != n or any(len(row) != n for row in self.M):
            raise ValueError("M must be square with one row per index")

    @property
    def n(self):
        return len(self.indices)

    def actives(self):
        return _actives(self.indices)

    def inactives(self):
        return [i for i, r in enumerate(self.indices) if not r.active]


@dataclass(frozen=True)
class QuiverData:
    """Final quiver presentation of a generating function:

        sum_d x^{sum d} (-q)^{q_vec.d} a^{a_vec.d} q^{d.Q.d^t}
              / prod_i (q^2;q^2)_{d_i}

    with Q symmetric (off-diagonal entries count once in each of the two
    symmetric positions)."""
    Q: tuple
    a_vec: tuple
    q_vec: tuple
    framing: int
    color_convention: str  # antisymmetric | symmetric

    @property
    def n(self):
        return len(self.q_vec)

    def __post_init__(self):
        if not len(self.Q) == len(self.a_vec) == len(self.q_vec):
            raise ValueError("Q, a_vec and q_vec need one entry per vertex")
        if tuple(zip(*self.Q)) != tuple(map(tuple, self.Q)):
            raise ValueError("Q must be symmetric")


def _freeze(M):
    return tuple(tuple(row) for row in M)


def _thaw(M):
    return [list(row) for row in M]


def trivial_state():
    """The trivial upward tangle: one inactive index, all exponents 0."""
    return QuiverState(UP, (IndexRecord(False, 0, 0, 0),), ((0,),))


def state_expand(st, N):
    """Expansion of a state: rescaled skein elements for colors j <= N.

    The coefficient of X[j,k] accumulates every index tuple d with
    sum d = j and sum_active d = k, each weighted by the positive
    multinomial [j; d]_+.

    One walk visits every d with |d| <= N through its nonzero entries
    only, adding the quadratic form incrementally: a new entry x at
    index i adds M_ii x^2 + x lin_i, where lin_i = sum_l (M_il + M_li)
    d_l is a linear form carried down the walk and updated when an
    entry is pushed.  Monomials are summed as raw exponent dicts per
    (j, k, K.d, sorted nonzero parts of d); the Pochhammer
    (q^2;q^2)_{K.d} and the multinomial depend only on that key, so each
    group is multiplied by them once.

    Most dimension vectors are leaves, |d| = N: the children of a node
    with entry x = N - j.  A leaf's key depends on its index i only
    through (active, extra_poch), so a node sums its leaves in one flat
    loop over i into at most four groups instead of walking into each."""
    n, M, recs = st.n, st.M, st.indices
    # row i of M + M^t past the diagonal: what an entry at i adds to
    # lin_l for the later indices l, the only ones its subtree reads
    cross = [[M[i][l] + M[l][i] for l in range(i + 1, n)] for i in range(n)]
    cls = [2 * r.active + r.extra_poch for r in recs]
    present = [set()]  # the classes at indices >= i, built from the end
    for c in reversed(cls):
        present.append(present[-1] | {c})
    present.reverse()
    # per entry x and parity of the running s.d: what a leaf at index i
    # adds besides x lin_i, as (q exponent, a exponent, sign, class)
    local = [None] + [
        [[(x * r.s + M[i][i] * x * x, x * r.a,
           -1 if (odd + x * r.s) % 2 else 1, c)
          for i, (r, c) in enumerate(zip(recs, cls))] for odd in (0, 1)]
        for x in range(1, N + 1)]
    groups = {}
    parts = []  # the nonzero entries of d

    def walk(start, j, k, kdot, sdot, adot, quad, lin):
        # lin holds lin_i for i >= start, the indices a child may take
        key = (j, k, kdot, tuple(sorted(parts)))
        raw = groups.setdefault(key, {})
        mono = (sdot + quad, adot)
        raw[mono] = raw.get(mono, 0) + (-1 if sdot % 2 else 1)
        if j == N:
            return
        x = N - j
        parts.append(x)
        tail = tuple(sorted(parts))
        parts.pop()
        raws = [None] * 4
        for c in present[start]:
            raws[c] = groups.setdefault(
                (N, k + x * (c >> 1), kdot + x * (c & 1), tail), {})
        base = sdot + quad
        for (lq, la, sign, c), l in zip(local[x][sdot % 2][start:], lin):
            raw = raws[c]
            mono = (base + lq + x * l, adot + la)
            raw[mono] = raw.get(mono, 0) + sign
        if x == 1:
            return
        for i, li in enumerate(lin, start):
            r, mii, row = recs[i], M[i][i], cross[i]
            rest = lin[i + 1 - start:]
            for y in range(1, x):
                parts.append(y)
                walk(i + 1, j + y, k + y if r.active else k,
                     kdot + y * r.extra_poch, sdot + y * r.s, adot + y * r.a,
                     quad + mii * y * y + li * y,
                     [a + y * b for a, b in zip(rest, row)])
                parts.pop()

    walk(0, 0, 0, 0, 0, 0, 0, [0] * n)
    coeffs = [[ZERO] * (j + 1) for j in range(N + 1)]
    for (j, k, kdot, parts), raw in groups.items():
        factor = qmultinomial(j, parts)
        if kdot:
            factor = factor * poch_q2(kdot)
        poly = LaurentPoly(raw)
        coeffs[j][k] = coeffs[j][k] + (poly if factor.is_one()
                                       else poly * factor)
    return [SkeinElement(j, st.obj, c) for j, c in enumerate(coeffs)]


def _absorb(records, M, coeff, const_a, const_q, targets,
            alpha_active=None, beta_active=None):
    """absorb_pochhammer on a thawed state: records and the rows of M
    are lists, extended and updated in place."""
    if const_q % 2:
        raise ValueError("const_q must be even: the per-unit sign must "
                         "be a power of -q")
    if len(set(targets)) != len(targets):
        raise ValueError("absorb targets must be distinct")
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

    # Each alpha starts as a copy of its target (a column, then a row)
    # and gains the cross terms 2 (coeff.d) alpha_i, alpha_i^2 and the
    # ordered cross terms 2 alpha_i (d_1 + ... + d_{i-1}): in row alpha_i
    # coeff, ones on the alpha block and on targets l < i; in every row
    # y, coeff_y on the alpha columns, and in row target l one more on
    # the alphas after alpha_l.
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


def absorb_pochhammer(st, coeff, const_a, const_q, targets, *,
                      alpha_active=None, beta_active=None):
    """Multiply by (q^{const_q} a^{const_a} q^{2 coeff.d}; q^2)_D, where D
    is the sum of the target indices, and absorb it by splitting each
    target index into (beta, alpha).

    Beta stays in place with its parent's record; the alphas are
    appended at the end in target order, carry the per-unit monomial
    -q^{const_q-1} a^{const_a} (hence const_q must be even so the sign
    matches a power of -q), and receive the quadratic cross-term
    bookkeeping that rewrites the positive multinomial over the coarse
    indices as the one over the split ones.  alpha_active/beta_active
    override the activity flags of the split halves (None keeps the
    parent's)."""
    records, M = list(st.indices), _thaw(st.M)
    _absorb(records, M, coeff, const_a, const_q, list(targets),
            alpha_active, beta_active)
    return QuiverState(st.obj, tuple(records), _freeze(M))


def _bump(M, rows, cols, delta):
    if len(cols) == len(M):  # distinct positions: every column
        for i in rows:
            M[i] = [v + delta for v in M[i]]
        return
    for i in rows:
        row = M[i]
        for l in cols:
            row[l] += delta


def _shift(records, positions, ds=0, da=0):
    for i in positions:
        r = records[i]
        records[i] = IndexRecord(r.active, r.extra_poch, r.s + ds, r.a + da)


def _actives(records):
    return [i for i, r in enumerate(records) if r.active]


def _twist(obj, records, M, kind):
    """apply_twist on a thawed state, in place; returns the boundary
    after the twist.  The product-form rule (multiply by a monomial and
    a Pochhammer prefactor, then absorb) runs between the two halves of
    the q^{k^2} convention bridge, k the active sum before and after."""
    act = _actives(records)
    inact = [i for i, r in enumerate(records) if not r.active]
    allpos = range(len(records))
    if kind == "T":
        targets = inact
        # act x act gains 2: the bridge's q^{k^2} and the rule's
        if obj == UP:
            # (-q)^{k-j} q^{k^2} (q^{2+2k}; q^2)_{j-k}
            _shift(records, inact, ds=-1)
            _bump(M, act, act, 2)
            const_a = 0
            coeff = [1 if r.active else 0 for r in records]
        elif obj in (OP, RI):
            # (-q)^k a^k q^{k^2-2jk} times (q^{2+2k};q^2)_{j-k} for OP
            # or (a q^{2+2k-2j};q^2)_{j-k} for RI
            _shift(records, act, ds=1, da=1)
            _bump(M, act, act, 2)
            _bump(M, allpos, act, -1)
            _bump(M, act, allpos, -1)
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
        _bump(M, act, act, 1)  # the bridge's q^{k^2}
        if obj == UP:
            # (-q)^{-j} a^{-j} q^{j^2} (a q^{2-2k}; q^2)_k
            _shift(records, allpos, ds=-1, da=-1)
            _bump(M, allpos, allpos, 1)
            const_a = 1
            coeff = [-1 if r.active else 0 for r in records]
        elif obj == OP:
            # (-q)^{-j} a^{k-j} q^{j^2-2jk} (q^{2+2j-2k}; q^2)_k
            _shift(records, allpos, ds=-1)
            _shift(records, inact, da=-1)
            _bump(M, allpos, allpos, 1)
            _bump(M, allpos, act, -1)
            _bump(M, act, allpos, -1)
            const_a = 0
            coeff = [0 if r.active else 1 for r in records]
        elif obj == RI:
            # q^{-j^2} (q^{2+2j-2k}; q^2)_k
            _bump(M, allpos, allpos, -1)
            const_a = 0
            coeff = [0 if r.active else 1 for r in records]
        else:
            raise ValueError(obj)
    else:
        raise ValueError(f"unknown twist kind {kind!r}")

    # New alphas always carry the new-crossing strand pair, hence end up
    # active; for R twists the old active mass is demoted to inactive.
    _absorb(records, M, coeff, const_a, 2, targets, True,
            False if kind == "R" else None)
    # back across the bridge, over the new actives
    act = _actives(records)
    _bump(M, act, act, -1)
    return boundary_after(obj, kind)


def apply_twist(st, kind):
    """Plain twist action: plain states expand to exactly the rescaled
    skein evaluation (see _twist for the product form)."""
    records, M = list(st.indices), _thaw(st.M)
    obj = _twist(st.obj, records, M, kind)
    return QuiverState(obj, tuple(records), _freeze(M))


def symmetrize(M):
    n = len(M)
    Q = [[0] * n for _ in range(n)]
    for i, (row, out) in enumerate(zip(M, Q)):
        out[i] = row[i]
        for l in range(i + 1, n):
            tot = row[l] + M[l][i]
            if tot % 2:
                raise ArithmeticError(
                    f"odd symmetrized entry at ({i},{l}): {tot}")
            out[l] = Q[l][i] = tot // 2
    return _freeze(Q)


def _close(obj, records, M, framing):
    """close_link on a thawed state, consuming its lists."""
    if obj not in (UP, OP):
        raise ValueError(f"cannot close {obj} North-South")
    if any(r.extra_poch for r in records):
        raise ValueError("close_link needs a state with no extra "
                         "Pochhammer flags")
    act = _actives(records)
    inact = [i for i, r in enumerate(records) if not r.active]
    allpos = range(len(records))
    # the positive multinomial is (q^2;q^2)_{sum d} over plain
    # Pochhammer denominators; its numerator is a pending cancellation
    if obj == UP:
        # X[j,k] -> a^{-j} q^{j^2+k^2} (a^2 q^{2-2j-2k};q^2)_j / (q^2;q^2)_j
        _shift(records, allpos, da=-1)
        _bump(M, allpos, allpos, 1)
        _bump(M, act, act, 1)
        coeff = [-2 if r.active else -1 for r in records]
        _absorb(records, M, coeff, 2, 2, list(allpos))
    else:
        # X[j,k] -> a^{k-j} q^{(j-k)^2} (a^2 q^{2-2j};q^2)_{j-k}
        #           / (q^2;q^2)_{j-k}
        # The (q^2;q^2)_j numerator cancels only partially; the quotient
        # (q^{2+2(j-k)};q^2)_k is absorbed over the active indices.
        _shift(records, inact, da=-1)
        _bump(M, inact, inact, 1)
        coeff = [0 if r.active else 1 for r in records]
        _absorb(records, M, coeff, 0, 2, act)
        _absorb(records, M, [-1] * len(records), 2, 2, inact)

    return QuiverData(symmetrize(M), tuple(r.a for r in records),
                      tuple(r.s for r in records), framing, "antisymmetric")


def close_link(st, framing=0):
    """Closure of a full tangle state (the link-route algorithm):
    substitute the closure scalar for X[j,k], cancel the rescaling
    numerator (q^2;q^2)_j against the closure denominator, absorb the
    remaining Pochhammer numerators, and export quiver data.

    The output is in the frame of the twist diagram; framing records
    that frame (the diagram writhe; callers shift by it for the zero
    frame)."""
    return _close(st.obj, list(st.indices), _thaw(st.M), framing)


# (sigma, c, e) of the reflection Q_il -> -Q_il - 1 + [i = l] that
# q_invert and mirror_quiver(polynomial=True) apply
_Q_INVERT = (-1, -1, 1)


def _affine(qd, sigma, c, e, q_shift, a_vec, framing, convention):
    """The one family of maps on quiver data: Q_il -> sigma Q_il + c +
    e [i = l] and q_i -> sigma q_i + q_shift (sigma = +-1), with a_vec,
    framing and color convention as given."""
    Q = []
    for i, row in enumerate(qd.Q):
        row = [x + c for x in row] if sigma > 0 else [c - x for x in row]
        row[i] += e
        Q.append(tuple(row))
    q_vec = (tuple(x + q_shift for x in qd.q_vec) if sigma > 0
             else tuple(q_shift - x for x in qd.q_vec))
    return QuiverData(tuple(Q), a_vec, q_vec, framing, convention)


def mirror_quiver(qd, *, polynomial):
    """Mirror image at the quiver-data level (q -> q^{-1}, a -> a^{-1}
    on the invariants the data encodes); negates the recorded framing.

    polynomial=True mirrors the numerator polynomials P_j = (coefficient
    of x^j) * (q^2;q^2)_j: inverting q in the positive multinomial
    [j; d]_+ costs q^{-2 e2(d)}, a quadratic form with zero diagonal and
    all-(-1) off-diagonal, so Q -> -Q with off-diagonal decrements and
    q_vec -> -q_vec (the reflection q_invert also applies).
    polynomial=False mirrors the bare coefficients: each denominator
    flips by (q^{-2};q^{-2})_d = (-1)^d q^{-d(d+1)} (q^2;q^2)_d,
    contributing (-1)^d q^{d(d+1)} per index, so Q -> -Q with diagonal
    increments and q_vec -> 1 - q_vec."""
    if qd.color_convention != "antisymmetric":
        raise ValueError("mirror acts on antisymmetric-convention data")
    sigma, c, e = _Q_INVERT if polynomial else (-1, 0, 1)
    return _affine(qd, sigma, c, e, 0 if polynomial else 1,
                   tuple(-x for x in qd.a_vec), -qd.framing,
                   qd.color_convention)


# the most vertices a route may build: the link route's cost grows
# about as n^3 and its output as n^2; a larger quiver is refused
MAX_VERTICES = 2048


def refuse_oversized(slope, vertices):
    """Raise ValueError, naming the slope, its count and the bound, when
    a route's vertex count vertices(slope) is over MAX_VERTICES."""
    n = vertices(slope)
    if n > MAX_VERTICES:
        raise ValueError(
            f"the quiver of {slope} would have {n} vertices, more than "
            f"the bound {MAX_VERTICES}")


def quiver_route(slope_or_terms, close, polynomial, vertices):
    """The tail both routes share: resolve the input to closable CF
    terms, build quiver data with close(terms, framing) in the diagram
    frame (framing = diagram writhe), and mirror it back with
    mirror_quiver(polynomial=...) when only a mirror representative
    closes.  vertices(rep) is the route's vertex count on the slope rep
    of those terms; more than MAX_VERTICES raises ValueError before
    anything is built."""
    terms, mirrored = resolve_terms(slope_or_terms)
    refuse_oversized(cf_value(terms), vertices)
    qd = close(terms, writhe(terms))
    return mirror_quiver(qd, polynomial=polynomial) if mirrored else qd


def _twist_and_close(terms, framing):
    st = trivial_state()
    obj, records, M = st.obj, list(st.indices), _thaw(st.M)
    for kind in twist_sequence(terms):
        obj = _twist(obj, records, M, kind)
    return _close(obj, records, M, framing)


def link_quiver(slope_or_terms):
    """Quiver data via the one-crossing-at-a-time route: plain twists
    followed by close_link.  Output is in the diagram frame with the
    framing field recording the diagram writhe; mirror representatives
    (needed for some slopes) are substituted at the data level."""
    return quiver_route(slope_or_terms, _twist_and_close, polynomial=False,
                        vertices=lambda rep: 2 * (rep.p + rep.q))


def framing_shift(qd, f):
    """Change the framing by f units: each unit multiplies color j by
    (-q)^{-j} a^{-j} q^{j^2}."""
    if not f:
        return qd
    return _affine(qd, 1, f, 0, -f, tuple(x - f for x in qd.a_vec),
                   qd.framing + f, qd.color_convention)


def q_invert(qd, f=0):
    """Pass from one-column to one-row colors after a framing shift by
    f, in one pass: q_invert(qd, f) == q_invert(framing_shift(qd, f)).
    The switch negates q_vec and Q, then decrements every off-diagonal
    entry of Q to account for the asymmetry of the q-Pochhammer
    denominators: Q_il -> -(Q_il + f) - 1 + [i = l], q_i -> f - q_i,
    a_i -> a_i - f."""
    if qd.color_convention != "antisymmetric":
        raise ValueError("data already in symmetric-color convention")
    sigma, c, e = _Q_INVERT
    return _affine(qd, sigma, sigma * f + c, e, f,
                   tuple(x - f for x in qd.a_vec), qd.framing + f,
                   "symmetric")


def canonical_shift(qd, symmetric):
    """Framing shift after which the smallest entry of Q is 0 in the
    output convention: as it stands, or after q_invert when symmetric.
    The output entries sigma (Q_il + f) + c + e [i = l] are affine in
    the shift f, so it is read off the extreme entry: of the diagonal
    (plus sigma e) and of the strict upper triangle, since Q is
    symmetric."""
    sigma, c, e = _Q_INVERT if symmetric else (1, 0, 0)
    pick = min if sigma > 0 else max
    Q = qd.Q
    extreme = pick([pick(row[i] for i, row in enumerate(Q)) + sigma * e,
                    *(pick(row[i + 1:]) for i, row in enumerate(Q[:-1]))])
    return -extreme - sigma * c

