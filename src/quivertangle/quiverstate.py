"""Generating-function states for rescaled skein evaluations.

A state encodes the multi-index sum

    sum_d (-q)^{S.d} a^{A.d} q^{d.M.d^t} (q^2;q^2)_{K.d}
          * bal_multinomial(sum d; d) * X[sum d, sum_active d]

through an ordered list of index records (active flag, membership flag K
in the single extra Pochhammer numerator, linear -q exponent s, linear a
exponent a) and an integer matrix M for the quadratic q-exponent.  The
multinomial is the balanced one: q^{-e2(d)} times the positive
q-multinomial, where e2 is the second elementary symmetric polynomial.

Twists act in "product form": multiply by a twist-dependent monomial and
Pochhammer symbol, then absorb the Pochhammer by splitting summation
indices.  The product form accumulates an extra q^{k^2} (k = sum of
active indices) relative to the plain twist action; `apply_twist`
bridges between the two conventions by adding/removing an all-ones
block on the active indices of M.

States are immutable; every operation returns a new state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .qseries import (LaurentPoly, ZERO, poch_q2, q_pow, qmultinomial)
from .skein import SkeinElement, writhe
from .tangles import (OP, RI, UP, Slope, boundary_after, cf_expand,
                      ends_ri, good_representative, twist_sequence)


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
        return [i for i, r in enumerate(self.indices) if r.active]

    def inactives(self):
        return [i for i, r in enumerate(self.indices) if not r.active]

    def s_vec(self):
        return [r.s for r in self.indices]

    def a_vec(self):
        return [r.a for r in self.indices]

    def k_vec(self):
        return [r.extra_poch for r in self.indices]


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


def _e2(d):
    total, acc = 0, 0
    for x in d:
        acc += total * x
        total += x
    return acc


def bal_multinomial(total, parts):
    """Balanced q-multinomial: q^{-e2(parts)} [total; parts]_+."""
    return qmultinomial(total, parts) * q_pow(-_e2(parts))


def state_expand(st, N, balanced=True):
    """Expansion of a state: rescaled skein elements for colors j <= N.

    The coefficient of X[j,k] accumulates every index tuple d with
    sum d = j and sum_active d = k.  balanced selects which multinomial
    convention the state is read in (the two conventions differ by the
    folded strictly-upper all-ones quadratic form).

    One walk visits every d with |d| <= N through its nonzero entries
    only, adding the quadratic form incrementally: a new entry x at
    index i adds M_ii x^2 + x sum_l (M_il + M_li) d_l.  Monomials are
    summed as raw exponent dicts per (j, k, K.d, sorted nonzero parts
    of d); the Pochhammer (q^2;q^2)_{K.d} and the multinomial depend
    only on that key, so each group is multiplied by them once."""
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
    multinomial = bal_multinomial if balanced else qmultinomial
    for (j, k, kdot, parts), raw in groups.items():
        coeffs[j][k] = (coeffs[j][k] + LaurentPoly(raw) * poch_q2(kdot)
                        * multinomial(j, parts))
    return [SkeinElement(j, st.obj, c) for j, c in enumerate(coeffs)]


def absorb_pochhammer(st, coeff, const_a, const_q, targets, *, refine=True,
                      alpha_active=None, beta_active=None):
    """Multiply by (q^{const_q} a^{const_a} q^{2 coeff.d}; q^2)_D, where D
    is the sum of the target indices, and absorb it by splitting each
    target index into (beta, alpha).

    Beta stays in place with its parent's record; the alphas are
    appended at the end in target order, carry the per-unit monomial
    -q^{const_q-1} a^{const_a} (hence const_q must be even so the sign
    matches a power of -q), and receive the quadratic cross-term
    bookkeeping.  With refine=True the balanced multinomial over the
    coarse indices is rewritten over the split ones, which costs one
    extra alpha-beta cross unit.  alpha_active/beta_active override the
    activity flags of the split halves (None keeps the parent's)."""
    if const_q % 2:
        raise ValueError("const_q must be even: the per-unit sign must "
                         "be a power of -q")
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
        # q^{alpha^2}
        M[ai][ai] += 1
        # ordered cross terms 2 alpha_i (d_1 + ... + d_{i-1}) over targets
        for tl in targets[:i]:
            for y in (tl, alpha_at[tl]):
                M[ai][y] += 1
                M[y][ai] += 1
        # base exponent cross terms 2 (coeff.d) alpha_i
        for y in range(m):
            c = coeff[parent[y]]
            if c:
                M[ai][y] += c
                M[y][ai] += c
        if refine:
            M[ai][t] += 1
    return QuiverState(st.obj, tuple(records), _freeze(M))


def _bump(M, rows, cols, delta):
    for i in rows:
        for l in cols:
            M[i][l] += delta


def _shift_records(records, positions, ds=0, da=0):
    records = list(records)
    for i in positions:
        r = records[i]
        records[i] = replace(r, s=r.s + ds, a=r.a + da)
    return records


# (kind, obj) -> prefactor and Pochhammer spec for the product twists.
# Entries: (s_shift_on, a_shift_on, quadratic bumps, poch const_a,
# poch coeff support, targets), with sets named over act/inact/all.
def apply_twist_product(st, kind, refine=True):
    """Product-form twist: multiply by the rule's monomial and
    Pochhammer prefactor, then absorb.  Chained from the trivial state
    this accumulates q^{k^2} (k = active sum) relative to the plain
    twists; see apply_twist for the bridge.  refine selects the
    balanced-multinomial reading of the state (pass False when the
    state is read with positive multinomials)."""
    act, inact = st.actives(), st.inactives()
    allpos = list(range(st.n))
    records = list(st.indices)
    M = _thaw(st.M)
    coeff = [0] * st.n

    def setc(positions, value):
        for i in positions:
            coeff[i] += value

    if kind == "T":
        targets = inact
        if st.obj == UP:
            # (-q)^{k-j} q^{k^2} (q^{2+2k}; q^2)_{j-k}
            records = _shift_records(records, inact, ds=-1)
            _bump(M, act, act, 1)
            const_a = 0
            setc(act, 1)
        elif st.obj in (OP, RI):
            # (-q)^k a^k q^{k^2-2jk} times (q^{2+2k};q^2)_{j-k} for OP
            # or (a q^{2+2k-2j};q^2)_{j-k} for RI
            records = _shift_records(records, act, ds=1, da=1)
            _bump(M, act, act, 1)
            _bump(M, allpos, act, -1)
            _bump(M, act, allpos, -1)
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
            # (-q)^{-j} a^{-j} q^{j^2} (a q^{2-2k}; q^2)_k
            records = _shift_records(records, allpos, ds=-1, da=-1)
            _bump(M, allpos, allpos, 1)
            const_a = 1
            setc(act, -1)
        elif st.obj == OP:
            # (-q)^{-j} a^{k-j} q^{j^2-2jk} (q^{2+2j-2k}; q^2)_k
            records = _shift_records(records, allpos, ds=-1)
            records = _shift_records(records, inact, da=-1)
            _bump(M, allpos, allpos, 1)
            _bump(M, allpos, act, -1)
            _bump(M, act, allpos, -1)
            const_a = 0
            setc(inact, 1)
        elif st.obj == RI:
            # q^{-j^2} (q^{2+2j-2k}; q^2)_k
            _bump(M, allpos, allpos, -1)
            const_a = 0
            setc(inact, 1)
        else:
            raise ValueError(st.obj)
    else:
        raise ValueError(f"unknown twist kind {kind!r}")

    mid = QuiverState(st.obj, tuple(records), _freeze(M))
    # New alphas always carry the new-crossing strand pair, hence end up
    # active; for R twists the old active mass is demoted to inactive.
    out = absorb_pochhammer(mid, coeff, const_a, 2, targets, refine=refine,
                            alpha_active=True,
                            beta_active=False if kind == "R" else None)
    return replace(out, obj=boundary_after(st.obj, kind))


def _ones_on_actives(st, delta):
    M = _thaw(st.M)
    act = st.actives()
    _bump(M, act, act, delta)
    return replace(st, M=_freeze(M))


def apply_twist(st, kind, refine=True):
    """Plain twist action.  Equals the product twist conjugated by the
    q^{k^2} convention bridge: plain states expand to exactly the
    rescaled skein evaluation, product states to q^{k^2} times it."""
    out = apply_twist_product(_ones_on_actives(st, 1), kind, refine=refine)
    return _ones_on_actives(out, -1)


def _fold_multinomial(M, n):
    """Rewrite the balanced multinomial as (q^2;q^2)_{sum d} over plain
    Pochhammer denominators: the q^{-e2(d)} balance factor moves into
    M's upper triangle; the numerator is returned symbolically as a
    pending cancellation."""
    for i in range(n):
        for l in range(i + 1, n):
            M[i][l] -= 1


def symmetrize(M):
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
    return _freeze(Q)


def close_link(st, framing=0):
    """Closure of a full tangle state (the link-route algorithm):
    substitute the closure scalar for X[j,k], cancel the rescaling
    numerator (q^2;q^2)_j against the closure denominator, absorb the
    remaining Pochhammer numerators, and export quiver data.

    The output is in the frame of the twist diagram; framing records
    that frame (the diagram writhe; callers shift by it for the zero
    frame)."""
    if st.obj not in (UP, OP):
        raise ValueError(f"cannot close {st.obj} North-South")
    if any(r.extra_poch for r in st.indices):
        raise ValueError("close_link needs a state with no extra "
                         "Pochhammer flags")
    act, inact = st.actives(), st.inactives()
    allpos = list(range(st.n))
    records = list(st.indices)
    M = _thaw(st.M)
    _fold_multinomial(M, st.n)

    if st.obj == UP:
        # X[j,k] -> a^{-j} q^{j^2+k^2} (a^2 q^{2-2j-2k};q^2)_j / (q^2;q^2)_j
        records = _shift_records(records, allpos, da=-1)
        _bump(M, allpos, allpos, 1)
        _bump(M, act, act, 1)
        mid = QuiverState(st.obj, tuple(records), _freeze(M))
        coeff = [-2 if r.active else -1 for r in mid.indices]
        out = absorb_pochhammer(mid, coeff, 2, 2, allpos, refine=False)
    else:
        # X[j,k] -> a^{k-j} q^{(j-k)^2} (a^2 q^{2-2j};q^2)_{j-k}
        #           / (q^2;q^2)_{j-k}
        # The (q^2;q^2)_j numerator cancels only partially; the quotient
        # (q^{2+2(j-k)};q^2)_k is absorbed over the active indices.
        records = _shift_records(records, inact, da=-1)
        _bump(M, inact, inact, 1)
        mid = QuiverState(st.obj, tuple(records), _freeze(M))
        coeff = [0 if r.active else 1 for r in mid.indices]
        mid = absorb_pochhammer(mid, coeff, 0, 2, act, refine=False)
        coeff = [-1] * mid.n
        out = absorb_pochhammer(mid, coeff, 2, 2,
                                [i for i in inact], refine=False)

    return QuiverData(symmetrize(_thaw(out.M)), tuple(out.a_vec()),
                      tuple(out.s_vec()), framing, "antisymmetric")


# (sigma, c, e) of the reflection Q_il -> -Q_il - 1 + [i = l] that
# q_invert and mirror_quiver(polynomial=True) apply
_Q_INVERT = (-1, -1, 1)


def _affine(qd, sigma, c, e, q_shift, a_vec, framing, convention):
    """The one family of maps on quiver data: Q_il -> sigma Q_il + c +
    e [i = l] and q_i -> sigma q_i + q_shift, with a_vec, framing and
    color convention as given."""
    Q = []
    for i, row in enumerate(qd.Q):
        row = [sigma * x + c for x in row]
        row[i] += e
        Q.append(tuple(row))
    return QuiverData(tuple(Q), a_vec,
                      tuple(sigma * x + q_shift for x in qd.q_vec),
                      framing, convention)


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


def resolve_terms(slope_or_terms):
    """Continued-fraction terms of a closable diagram for the input,
    plus whether a mirror representative had to be substituted.  Slope
    input keeps the given q when its own tangle closes North-South."""
    if isinstance(slope_or_terms, Slope):
        slope = slope_or_terms
        if ends_ri(slope):
            rep, mirrored = good_representative(slope)
            return cf_expand(rep), mirrored
        return cf_expand(slope), False
    return list(slope_or_terms), False


def quiver_route(slope_or_terms, close, polynomial):
    """The tail both routes share: resolve the input to closable CF
    terms, build quiver data with close(terms, framing) in the diagram
    frame (framing = diagram writhe), and mirror it back with
    mirror_quiver(polynomial=...) when only a mirror representative
    closes."""
    terms, mirrored = resolve_terms(slope_or_terms)
    qd = close(terms, writhe(terms))
    return mirror_quiver(qd, polynomial=polynomial) if mirrored else qd


def _twist_and_close(terms, framing):
    st = trivial_state()
    for kind in twist_sequence(terms):
        st = apply_twist(st, kind)
    return close_link(st, framing)


def link_quiver(slope_or_terms):
    """Quiver data via the one-crossing-at-a-time route: plain twists
    followed by close_link.  Output is in the diagram frame with the
    framing field recording the diagram writhe; mirror representatives
    (needed for some slopes) are substituted at the data level."""
    return quiver_route(slope_or_terms, _twist_and_close, polynomial=False)


def framing_shift(qd, f):
    """Change the framing by f units: each unit multiplies color j by
    (-q)^{-j} a^{-j} q^{j^2}."""
    if not f:
        return qd
    return _affine(qd, 1, f, 0, -f, tuple(x - f for x in qd.a_vec),
                   qd.framing + f, qd.color_convention)


def q_invert(qd):
    """Pass from one-column to one-row colors: negate q_vec and Q, then
    decrement every off-diagonal entry of Q to account for the
    asymmetry of the q-Pochhammer denominators."""
    if qd.color_convention != "antisymmetric":
        raise ValueError("data already in symmetric-color convention")
    return _affine(qd, *_Q_INVERT, 0, qd.a_vec, qd.framing, "symmetric")


def canonical_shift(qd, symmetric):
    """Framing shift after which the smallest entry of Q is 0 in the
    output convention: as it stands, or after q_invert when symmetric.
    The output entries sigma (Q_il + f) + c + e [i = l] are affine in
    the shift f, so it is read off the extreme entry."""
    sigma, c, e = _Q_INVERT if symmetric else (1, 0, 0)
    pick = min if sigma > 0 else max
    extreme = pick(pick(row[:i] + (row[i] + sigma * e,) + row[i + 1:])
                   for i, row in enumerate(qd.Q))
    return -extreme - sigma * c

