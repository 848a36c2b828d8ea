"""Knot pipeline: quiver presentations with exactly p vertices for
rational knots p/q.

Instead of acting with one crossing at a time, crossings are processed
in pairs (plus a final top-crossing-and-closure cluster), acting on
states in "almost quiver form": a quiver-state whose extra Pochhammer
numerator (q^2;q^2)_{K.d} tracks either the active mass k (flags on the
active indices) or the inactive mass j-k (flags on the inactive
indices).  Top-twist pairs require the k-type bookkeeping, right-twist
pairs the (j-k)-type; a stretch of twists that arrives with the wrong
type is processed by generic single twists followed by re-expressing
the Pochhammer numerator at the new splitting (the "re-summation"
step).

The paired actions are closed-form block transforms on the state
(records split into the active block "+" and the inactive block "-",
in state order); L and U denote strictly lower/upper triangular
all-ones blocks, which only pair equal-size same-source blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiverstate import (IndexRecord, QuiverData, QuiverState, quiver_route,
                          symmetrize, trivial_state, _absorb, _freeze, _thaw,
                          _twist)
from .tangles import (OP, RI, UP, boundary_after, boundary_walk, cf_value,
                      is_knot, resolve_terms)


@dataclass(frozen=True)
class HomologyGenerator:
    a_degree: int
    q_degree: int
    t_degree: int


# Block transforms, keyed by (pair, boundary before): (boundary after,
# or None for the closure; output blocks; M template).  Output blocks
# are (active, k_flag, source, s_shift, a_shift) with source "+"/"-".
# M template entry (shift, tri) of output blocks (b, c) is the input
# block (source of b, source of c) plus shift, plus the strictly lower
# (tri "L") or upper (tri "U") all-ones block.

_P, _M_ = "+", "-"

_TRANSFORMS = {
    ("TT", UP): (UP, [(1, 1, _P, 0, 0), (1, 1, _M_, -1, 0),
                      (0, 0, _M_, -2, 0)],
                 [((2, None), (0, None), (0, None)),
                  ((0, None), (0, None), (0, "L")),
                  ((0, None), (0, "U"), (0, None))]),
    ("TT", OP): (OP, [(1, 1, _P, 2, 2), (1, 1, _M_, 1, 1), (0, 0, _M_, 0, 0)],
                 [((-2, None), (-3, None), (-2, None)),
                  ((-3, None), (-2, None), (-1, "L")),
                  ((-2, None), (-1, "U"), (0, None))]),
    ("RR", OP): (OP, [(1, 0, _P, 0, 0), (0, 1, _P, -2, -1),
                      (0, 1, _M_, -2, -2)],
                 [((0, None), (1, "L"), (2, None)),
                  ((1, "U"), (1, None), (1, None)),
                  ((2, None), (1, None), (2, None))]),
    ("RR", RI): (RI, [(1, 0, _P, 2, 0), (0, 1, _P, 0, 0), (0, 1, _M_, 0, 0)],
                 [((0, None), (0, "L"), (0, None)),
                  ((0, "U"), (-1, None), (-2, None)),
                  ((0, None), (-2, None), (-2, None))]),
    ("TR", OP): (UP, [(1, 1, _P, -1, 0), (1, 1, _M_, -1, -1),
                      (0, 0, _P, -2, 0), (0, 0, _M_, -2, -1),
                      (0, 0, _M_, -1, -1)],
                 [((0, None), (0, None), (0, "L"), (0, None), (1, None)),
                  ((0, None), (1, None), (1, None), (1, "L"), (2, "L")),
                  ((0, "U"), (1, None), (0, None), (0, None), (0, None)),
                  ((0, None), (1, "U"), (0, None), (1, None), (1, "U")),
                  ((1, None), (2, "U"), (0, None), (1, "L"), (2, None))]),
    ("TR", RI): (OP, [(1, 1, _P, 1, 1), (1, 1, _M_, 1, 1), (0, 0, _P, 0, 0),
                      (0, 0, _M_, 0, 0), (0, 0, _M_, 1, 0)],
                 [((-2, None), (-3, None), (-1, "L"), (-2, None), (-1, None)),
                  ((-3, None), (-3, None), (-1, None), (-2, "L"), (-1, "L")),
                  ((-1, "U"), (-1, None), (0, None), (-1, None), (-1, None)),
                  ((-2, None), (-2, "U"), (-1, None), (-1, None), (-1, "U")),
                  ((-1, None), (-1, "U"), (-1, None), (-1, "L"), (0, None))]),
    ("RT", UP): (OP, [(1, 0, _P, 0, 0), (1, 0, _P, 1, 0), (1, 0, _M_, 0, 0),
                      (0, 1, _P, -1, -1), (0, 1, _M_, -2, -1)],
                 [((1, None), (1, "U"), (0, None), (2, "L"), (1, None)),
                  ((1, "L"), (2, None), (0, None), (3, "L"), (1, None)),
                  ((0, None), (0, None), (0, None), (2, None), (1, "L")),
                  ((2, "U"), (3, "U"), (2, None), (3, None), (1, None)),
                  ((1, None), (1, None), (1, "U"), (1, None), (1, None))]),
    ("RT", OP): (RI, [(1, 0, _P, 2, 1), (1, 0, _P, 3, 1), (1, 0, _M_, 2, 0),
                      (0, 1, _P, 1, 1), (0, 1, _M_, 0, 0)],
                 [((-1, None), (-1, "U"), (-1, None), (-1, "L"), (-1, None)),
                  ((-1, "L"), (0, None), (-1, None), (0, "L"), (-1, None)),
                  ((-1, None), (-1, None), (0, None), (0, None), (0, "L")),
                  ((-1, "U"), (0, "U"), (0, None), (-1, None), (-2, None)),
                  ((-1, None), (-1, None), (0, "U"), (-2, None), (-1, None))]),
    # Final top crossing + North-South closure.
    ("close", UP): (None, [(0, 1, _P, 0, -1), (0, 1, _M_, -1, -1),
                           (0, 1, _P, 1, 1)],
                    [((3, None), (1, None), (1, "L")),
                     ((1, None), (1, None), (0, None)),
                     ((1, "U"), (0, None), (0, None))]),
    ("close", RI): (None, [(0, 1, _P, 1, 1), (0, 1, _M_, 0, -1),
                           (0, 1, _M_, 1, 1)],
                    [((-1, None), (-1, None), (-2, None)),
                     ((-1, None), (1, None), (-1, "L")),
                     ((-2, None), (-1, "U"), (-2, None))]),
}


def _k_type(st):
    """True if the extra Pochhammer flags sit exactly on the actives
    (length k); False if exactly on the inactives (length j-k)."""
    on_act = all(r.extra_poch == 1 for r in st.indices if r.active)
    off_in = all(r.extra_poch == 0 for r in st.indices if not r.active)
    if on_act and off_in:
        return True
    on_in = all(r.extra_poch == 1 for r in st.indices if not r.active)
    off_act = all(r.extra_poch == 0 for r in st.indices if r.active)
    if on_in and off_act:
        return False
    raise ValueError("state bookkeeping is neither k nor j-k type")


def _require_type(st, k_type, step):
    if _k_type(st) != k_type:
        raise ValueError(f"{step} needs {'k' if k_type else '(j-k)'}-type "
                         "bookkeeping")


def _apply_template(st, key):
    """The block transform _TRANSFORMS[key] of st, whose actives form
    the "+" block and whose inactives form the "-" block, each in state
    order (the denotation is permutation-covariant)."""
    out_obj, blocks, mspec = _TRANSFORMS[key]
    members = {_P: st.actives(), _M_: st.inactives()}
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


def apply_pair(st, pair):
    """Apply a pair of twists (TT, RR, RT=T-then-R, TR=R-then-T) as a
    closed-form block transform.  Requires the matching Pochhammer
    bookkeeping type (k for TT/RT, j-k for RR/TR)."""
    if (pair, st.obj) not in _TRANSFORMS:
        raise ValueError(f"no {pair} transform at boundary {st.obj}")
    _require_type(st, pair in ("TT", "RT"), pair)
    out = _apply_template(st, (pair, st.obj))
    expected = boundary_after(boundary_after(st.obj, pair[1]), pair[0])
    if out.obj != expected:
        raise RuntimeError(f"{pair} template at {st.obj} ends on "
                           f"{out.obj}, not {expected}")
    return out


def resum_stretch(st, kind, count):
    """Process a whole stretch of `count` twists whose bookkeeping type
    is the wrong one for `kind`: act with generic single twists (the
    Pochhammer factor rides along on the flagged indices), then split
    the flagged mass so the numerator matches the new active/inactive
    decomposition."""
    obj, records, M = st.obj, list(st.indices), _thaw(st.M)
    for _ in range(count):
        obj = _twist(obj, records, M, kind)
    if kind == "T":
        # (q^2;q^2)_{j-k_old} = (q^2;q^2)_{j-k} (q^{2+2(j-k)};q^2)_{k-k_old}
        targets = [i for i, r in enumerate(records)
                   if r.active and r.extra_poch]
        coeff = [0 if r.active else 1 for r in records]
        new_k_type = False
    else:
        # (q^2;q^2)_{k_old} = (q^2;q^2)_k (q^{2+2k};q^2)_{k_old-k}
        targets = [i for i, r in enumerate(records)
                   if not r.active and r.extra_poch]
        coeff = [1 if r.active else 0 for r in records]
        new_k_type = True
    _absorb(records, M, coeff, 0, 2, targets)
    records = tuple(IndexRecord(r.active, 1 if r.active == new_k_type else 0,
                                r.s, r.a) for r in records)
    return QuiverState(obj, records, _freeze(M))


def reduce_steps(terms):
    """Run the paired-crossing algorithm over the continued fraction,
    withholding the final top crossing (it is consumed by the closure).
    Yields (step, state) after each step: a pair TT, RR, RT or TR (the
    later twist first), or a re-summed stretch T^x or R^x."""
    terms = list(terms)
    if len(terms) % 2 == 0 or any(t < 1 for t in terms):
        raise ValueError(f"bad continued fraction {terms}: need an "
                         "odd-length list of positive integers")
    if not is_knot(cf_value(terms)):
        raise ValueError("two-component link: the p-vertex pipeline "
                         "needs an odd numerator")
    counts = list(terms)
    counts[-1] -= 1
    st = trivial_state()
    i = 0
    while i < len(counts):
        kind = "T" if i % 2 == 0 else "R"
        x = counts[i]
        if x == 0:
            i += 1
            continue
        natural = _k_type(st) if kind == "T" else not _k_type(st)
        if not natural:
            st = resum_stretch(st, kind, x)
            yield f"{kind}^{x}", st
            i += 1
            continue
        while x >= 2:
            st = apply_pair(st, kind * 2)
            yield kind * 2, st
            x -= 2
        if x == 1:
            if i + 1 == len(counts) or counts[i + 1] < 1:
                raise ValueError("dangling single twist cannot be paired")
            other = "R" if kind == "T" else "T"
            pair = other + kind  # kind acts first
            st = apply_pair(st, pair)
            yield pair, st
            counts[i + 1] -= 1
        i += 1


def reduce_cf(terms):
    """The pre-final state of reduce_steps: the state after its last
    step, or the trivial state when there is none."""
    st = trivial_state()
    for _, st in reduce_steps(terms):
        pass
    return st


def final_close(st, framing=0):
    """Consume the withheld top crossing and close the tangle,
    producing quiver data in the diagram frame (recorded as framing)
    with antisymmetric color convention."""
    if st.obj not in (UP, RI):
        raise ValueError(
            f"pre-final state of type {st.obj} is not closable; "
            "use an equivalent slope representative")
    _require_type(st, st.obj == UP, f"closing at {st.obj}")
    out = _apply_template(st, ("close", st.obj))
    return QuiverData(symmetrize(out.M),
                      tuple(r.a for r in out.indices),
                      tuple(r.s for r in out.indices),
                      framing, "antisymmetric")


def knot_quiver(slope_or_terms):
    """Quiver data (p vertices) for a rational knot, in the frame of
    the standard twist diagram (framing field = diagram writhe).

    For slope input, a closable equivalent representative is chosen
    automatically; when only a mirror representative closes, the data
    is mirrored back at the quiver level so the output always presents
    the requested slope."""
    return quiver_route(slope_or_terms, _reduce_and_close, polynomial=True,
                        vertices=knot_vertices)


def knot_vertices(slope):
    """The knot route's vertex count: one vertex per unit of p."""
    return slope.p


def _reduce_and_close(terms, framing):
    return final_close(reduce_cf(terms), framing)


def delta_vector(qd):
    """Per-vertex delta-grading q_i - Q_ii - 2 a_i (antisymmetric
    convention, diagram frame not required: the grading shifts uniformly
    with framing)."""
    return tuple(qd.q_vec[i] - qd.Q[i][i] - 2 * qd.a_vec[i]
                 for i in range(qd.n))


def signature(slope_or_terms):
    """Knot signature from the twist word: walk the boundary automaton
    and count the grading-shifting twist types (positive knots get
    negative signature)."""
    terms, mirrored = resolve_terms(slope_or_terms)
    if not is_knot(cf_value(terms)):
        raise ValueError("signature is defined here for knots only")
    # only top twists at UP and right twists at RI shift the grading
    steps = list(boundary_walk(terms))
    sig = 1 - steps.count((UP, "T")) + steps.count((RI, "R"))
    return -sig if mirrored else sig


def homology_generators(qd):
    """Generators of the reduced triply-graded homology, one per
    vertex, read off a closure-frame antisymmetric-convention quiver
    presentation (the frame knot_quiver produces); in that frame every
    generator satisfies 2t - 2a - q = signature."""
    return tuple(HomologyGenerator(qd.a_vec[i],
                                   -qd.Q[i][i] - qd.q_vec[i],
                                   -qd.Q[i][i])
                 for i in range(qd.n))
