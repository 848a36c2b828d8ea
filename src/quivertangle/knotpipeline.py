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

from dataclasses import dataclass, replace

from .quiverstate import (IndexRecord, QuiverData, QuiverState,
                          absorb_pochhammer, apply_twist, quiver_route,
                          resolve_terms, symmetrize, trivial_state, _freeze)
from .tangles import (OP, RI, UP, Slope, boundary_after, boundary_walk,
                      cf_value, is_knot)


@dataclass(frozen=True)
class PairedOp:
    """One processed step of the pipeline, for reporting/testing."""
    kind: str  # TT | RR | RT | TR | T^x | R^x
    obj_before: str
    obj_after: str


@dataclass(frozen=True)
class HomologyGenerator:
    a_degree: int
    q_degree: int
    t_degree: int


def _block_split(st):
    """Permute the state to (actives..., inactives...) order; the
    denotation is permutation-covariant."""
    order = st.actives() + st.inactives()
    records = tuple(st.indices[i] for i in order)
    M = tuple(tuple(st.M[i][l] for l in order) for i in order)
    return QuiverState(st.obj, records, M)


# Block transforms: (input objects, required K position, output object,
# output blocks, M template).  Output blocks are
# (active, k_flag, source, s_shift, a_shift) with source "+"/"-".
# M template entries are (row_source, col_source, shift, tri) with tri
# in (None, "L", "U").

_P, _M_ = "+", "-"


def _row(*entries):
    return tuple(entries)


_TRANSFORMS = {
    ("TT", UP): (UP, [(1, 1, _P, 0, 0), (1, 1, _M_, -1, 0),
                      (0, 0, _M_, -2, 0)],
                 [_row((_P, _P, 2, None), (_P, _M_, 0, None), (_P, _M_, 0, None)),
                  _row((_M_, _P, 0, None), (_M_, _M_, 0, None), (_M_, _M_, 0, "L")),
                  _row((_M_, _P, 0, None), (_M_, _M_, 0, "U"), (_M_, _M_, 0, None))]),
    ("TT", OP): (OP, [(1, 1, _P, 2, 2), (1, 1, _M_, 1, 1),
                      (0, 0, _M_, 0, 0)],
                 [_row((_P, _P, -2, None), (_P, _M_, -3, None), (_P, _M_, -2, None)),
                  _row((_M_, _P, -3, None), (_M_, _M_, -2, None), (_M_, _M_, -1, "L")),
                  _row((_M_, _P, -2, None), (_M_, _M_, -1, "U"), (_M_, _M_, 0, None))]),
    ("RR", OP): (OP, [(1, 0, _P, 0, 0), (0, 1, _P, -2, -1),
                      (0, 1, _M_, -2, -2)],
                 [_row((_P, _P, 0, None), (_P, _P, 1, "L"), (_P, _M_, 2, None)),
                  _row((_P, _P, 1, "U"), (_P, _P, 1, None), (_P, _M_, 1, None)),
                  _row((_M_, _P, 2, None), (_M_, _P, 1, None), (_M_, _M_, 2, None))]),
    ("RR", RI): (RI, [(1, 0, _P, 2, 0), (0, 1, _P, 0, 0),
                      (0, 1, _M_, 0, 0)],
                 [_row((_P, _P, 0, None), (_P, _P, 0, "L"), (_P, _M_, 0, None)),
                  _row((_P, _P, 0, "U"), (_P, _P, -1, None), (_P, _M_, -2, None)),
                  _row((_M_, _P, 0, None), (_M_, _P, -2, None), (_M_, _M_, -2, None))]),
    ("TR", OP): (UP, [(1, 1, _P, -1, 0), (1, 1, _M_, -1, -1),
                      (0, 0, _P, -2, 0), (0, 0, _M_, -2, -1),
                      (0, 0, _M_, -1, -1)],
                 [_row((_P, _P, 0, None), (_P, _M_, 0, None), (_P, _P, 0, "L"),
                       (_P, _M_, 0, None), (_P, _M_, 1, None)),
                  _row((_M_, _P, 0, None), (_M_, _M_, 1, None), (_M_, _P, 1, None),
                       (_M_, _M_, 1, "L"), (_M_, _M_, 2, "L")),
                  _row((_P, _P, 0, "U"), (_P, _M_, 1, None), (_P, _P, 0, None),
                       (_P, _M_, 0, None), (_P, _M_, 0, None)),
                  _row((_M_, _P, 0, None), (_M_, _M_, 1, "U"), (_M_, _P, 0, None),
                       (_M_, _M_, 1, None), (_M_, _M_, 1, "U")),
                  _row((_M_, _P, 1, None), (_M_, _M_, 2, "U"), (_M_, _P, 0, None),
                       (_M_, _M_, 1, "L"), (_M_, _M_, 2, None))]),
    ("TR", RI): (OP, [(1, 1, _P, 1, 1), (1, 1, _M_, 1, 1),
                      (0, 0, _P, 0, 0), (0, 0, _M_, 0, 0),
                      (0, 0, _M_, 1, 0)],
                 [_row((_P, _P, -2, None), (_P, _M_, -3, None), (_P, _P, -1, "L"),
                       (_P, _M_, -2, None), (_P, _M_, -1, None)),
                  _row((_M_, _P, -3, None), (_M_, _M_, -3, None), (_M_, _P, -1, None),
                       (_M_, _M_, -2, "L"), (_M_, _M_, -1, "L")),
                  _row((_P, _P, -1, "U"), (_P, _M_, -1, None), (_P, _P, 0, None),
                       (_P, _M_, -1, None), (_P, _M_, -1, None)),
                  _row((_M_, _P, -2, None), (_M_, _M_, -2, "U"), (_M_, _P, -1, None),
                       (_M_, _M_, -1, None), (_M_, _M_, -1, "U")),
                  _row((_M_, _P, -1, None), (_M_, _M_, -1, "U"), (_M_, _P, -1, None),
                       (_M_, _M_, -1, "L"), (_M_, _M_, 0, None))]),
    ("RT", UP): (OP, [(1, 0, _P, 0, 0), (1, 0, _P, 1, 0),
                      (1, 0, _M_, 0, 0), (0, 1, _P, -1, -1),
                      (0, 1, _M_, -2, -1)],
                 [_row((_P, _P, 1, None), (_P, _P, 1, "U"), (_P, _M_, 0, None),
                       (_P, _P, 2, "L"), (_P, _M_, 1, None)),
                  _row((_P, _P, 1, "L"), (_P, _P, 2, None), (_P, _M_, 0, None),
                       (_P, _P, 3, "L"), (_P, _M_, 1, None)),
                  _row((_M_, _P, 0, None), (_M_, _P, 0, None), (_M_, _M_, 0, None),
                       (_M_, _P, 2, None), (_M_, _M_, 1, "L")),
                  _row((_P, _P, 2, "U"), (_P, _P, 3, "U"), (_P, _M_, 2, None),
                       (_P, _P, 3, None), (_P, _M_, 1, None)),
                  _row((_M_, _P, 1, None), (_M_, _P, 1, None), (_M_, _M_, 1, "U"),
                       (_M_, _P, 1, None), (_M_, _M_, 1, None))]),
    ("RT", OP): (RI, [(1, 0, _P, 2, 1), (1, 0, _P, 3, 1),
                      (1, 0, _M_, 2, 0), (0, 1, _P, 1, 1),
                      (0, 1, _M_, 0, 0)],
                 [_row((_P, _P, -1, None), (_P, _P, -1, "U"), (_P, _M_, -1, None),
                       (_P, _P, -1, "L"), (_P, _M_, -1, None)),
                  _row((_P, _P, -1, "L"), (_P, _P, 0, None), (_P, _M_, -1, None),
                       (_P, _P, 0, "L"), (_P, _M_, -1, None)),
                  _row((_M_, _P, -1, None), (_M_, _P, -1, None), (_M_, _M_, 0, None),
                       (_M_, _P, 0, None), (_M_, _M_, 0, "L")),
                  _row((_P, _P, -1, "U"), (_P, _P, 0, "U"), (_P, _M_, 0, None),
                       (_P, _P, -1, None), (_P, _M_, -2, None)),
                  _row((_M_, _P, -1, None), (_M_, _P, -1, None), (_M_, _M_, 0, "U"),
                       (_M_, _P, -2, None), (_M_, _M_, -1, None))]),
    # Final top crossing + North-South closure.
    ("close", UP): (None, [(0, 1, _P, 0, -1), (0, 1, _M_, -1, -1),
                           (0, 1, _P, 1, 1)],
                    [_row((_P, _P, 3, None), (_P, _M_, 1, None), (_P, _P, 1, "L")),
                     _row((_M_, _P, 1, None), (_M_, _M_, 1, None), (_M_, _P, 0, None)),
                     _row((_P, _P, 1, "U"), (_P, _M_, 0, None), (_P, _P, 0, None))]),
    ("close", RI): (None, [(0, 1, _P, 1, 1), (0, 1, _M_, 0, -1),
                           (0, 1, _M_, 1, 1)],
                    [_row((_P, _P, -1, None), (_P, _M_, -1, None), (_P, _M_, -2, None)),
                     _row((_M_, _P, -1, None), (_M_, _M_, 1, None), (_M_, _M_, -1, "L")),
                     _row((_M_, _P, -2, None), (_M_, _M_, -1, "U"), (_M_, _M_, -2, None))]),
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
    raise AssertionError("state bookkeeping is neither k nor j-k type")


def _apply_template(st, key):
    out_obj, blocks, mspec = _TRANSFORMS[key]
    bl = _block_split(st)
    plus = [bl.indices[i] for i in range(bl.n) if bl.indices[i].active]
    minus = [bl.indices[i] for i in range(bl.n) if not bl.indices[i].active]
    m, n = len(plus), len(minus)
    size = {_P: m, _M_: n}
    src_recs = {_P: plus, _M_: minus}
    # base quadratic-form blocks of the block-ordered input
    off = {_P: 0, _M_: m}

    def base(rs, cs, i, l):
        return bl.M[off[rs] + i][off[cs] + l]

    records = []
    for active, kflag, src, ds, da in blocks:
        for r in src_recs[src]:
            records.append(IndexRecord(bool(active), kflag,
                                       r.s + ds, r.a + da))

    spans = []
    pos = 0
    for active, kflag, src, ds, da in blocks:
        spans.append((src, pos, size[src]))
        pos += size[src]
    total = pos

    M = [[0] * total for _ in range(total)]
    for bi, (rsrcblk, rpos, rsz) in enumerate(spans):
        for bj, (csrcblk, cpos, csz) in enumerate(spans):
            rs, cs, shift, tri = mspec[bi][bj]
            assert size[rs] == rsz and size[cs] == csz
            for i in range(rsz):
                for l in range(csz):
                    v = base(rs, cs, i, l) + shift
                    if tri == "L" and i > l:
                        v += 1
                    elif tri == "U" and i < l:
                        v += 1
                    M[rpos + i][cpos + l] = v
    new_obj = out_obj
    return QuiverState(new_obj or st.obj, tuple(records), _freeze(M))


def apply_pair(st, pair):
    """Apply a pair of twists (TT, RR, RT=T-then-R, TR=R-then-T) as a
    closed-form block transform.  Requires the matching Pochhammer
    bookkeeping type (k for TT/RT, j-k for RR/TR)."""
    if isinstance(pair, PairedOp):
        pair = pair.kind
    if pair in ("TT", "RT"):
        assert _k_type(st), f"{pair} needs k-type bookkeeping"
    else:
        assert not _k_type(st), f"{pair} needs (j-k)-type bookkeeping"
    out = _apply_template(st, (pair, st.obj))
    expected = boundary_after(boundary_after(st.obj, pair[1]), pair[0])
    assert out.obj == expected
    return out


def _set_poch_flags(st, k_type):
    records = tuple(replace(r, extra_poch=1 if r.active == k_type else 0)
                    for r in st.indices)
    return replace(st, indices=records)


def resum_stretch(st, kind, count):
    """Process a whole stretch of `count` twists whose bookkeeping type
    is the wrong one for `kind`: act with generic single twists (the
    Pochhammer factor rides along on the flagged indices), then split
    the flagged mass so the numerator matches the new active/inactive
    decomposition."""
    for _ in range(count):
        st = apply_twist(st, kind, refine=False)
    if kind == "T":
        # (q^2;q^2)_{j-k_old} = (q^2;q^2)_{j-k} (q^{2+2(j-k)};q^2)_{k-k_old}
        targets = [i for i, r in enumerate(st.indices)
                   if r.active and r.extra_poch]
        coeff = [0 if r.active else 1 for r in st.indices]
        new_k_type = False
    else:
        # (q^2;q^2)_{k_old} = (q^2;q^2)_k (q^{2+2k};q^2)_{k_old-k}
        targets = [i for i, r in enumerate(st.indices)
                   if not r.active and r.extra_poch]
        coeff = [1 if r.active else 0 for r in st.indices]
        new_k_type = True
    st = absorb_pochhammer(st, coeff, 0, 2, targets, refine=False)
    return _set_poch_flags(st, new_k_type)


def reduce_cf(terms, with_ops=False):
    """Run the paired-crossing algorithm over the continued fraction,
    withholding the final top crossing (it is consumed by the closure).
    Returns the pre-final state (and the PairedOp log if with_ops)."""
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
    ops = []

    def log(name, before, after):
        ops.append(PairedOp(name, before, after))

    i = 0
    while i < len(counts):
        kind = "T" if i % 2 == 0 else "R"
        x = counts[i]
        if x == 0:
            i += 1
            continue
        natural = _k_type(st) if kind == "T" else not _k_type(st)
        if not natural:
            before = st.obj
            st = resum_stretch(st, kind, x)
            log(f"{kind}^{x}", before, st.obj)
            i += 1
            continue
        while x >= 2:
            before = st.obj
            st = apply_pair(st, kind * 2)
            log(kind * 2, before, st.obj)
            x -= 2
        if x == 1:
            assert i + 1 < len(counts) and counts[i + 1] >= 1, \
                "dangling single twist cannot be paired"
            other = "R" if kind == "T" else "T"
            pair = other + kind  # kind acts first
            before = st.obj
            st = apply_pair(st, pair)
            log(pair, before, st.obj)
            counts[i + 1] -= 1
        i += 1
    return (st, ops) if with_ops else st


def final_close(st, origin=None, framing=0):
    """Consume the withheld top crossing and close the tangle,
    producing quiver data in the diagram frame (recorded as framing)
    with antisymmetric color convention."""
    if st.obj == UP:
        assert _k_type(st)
        out = _apply_template(st, ("close", UP))
    elif st.obj == RI:
        assert not _k_type(st)
        out = _apply_template(st, ("close", RI))
    else:
        raise ValueError(
            f"pre-final state of type {st.obj} is not closable; "
            "use an equivalent slope representative")
    return QuiverData(symmetrize([list(r) for r in out.M]),
                      tuple(out.a_vec()), tuple(out.s_vec()),
                      framing, "antisymmetric", origin)


def knot_quiver(slope_or_terms, origin=None):
    """Quiver data (p vertices) for a rational knot, in the frame of
    the standard twist diagram (framing field = diagram writhe).

    For slope input, a closable equivalent representative is chosen
    automatically; when only a mirror representative closes, the data
    is mirrored back at the quiver level so the output always presents
    the requested slope."""
    return quiver_route(slope_or_terms, origin, _reduce_and_close,
                        polynomial=True)


def _reduce_and_close(terms, origin, framing):
    return final_close(reduce_cf(terms), origin, framing)


def delta_vector(qd):
    """Per-vertex delta-grading q_i - Q_ii - 2 a_i (antisymmetric
    convention, diagram frame not required: the grading shifts uniformly
    with framing)."""
    return tuple(qd.q_vec[i] - qd.Q[i][i] - 2 * qd.a_vec[i]
                 for i in range(qd.n))


def delta_homogeneous(qd):
    """(is_homogeneous, common value or None) for the delta-grading."""
    values = set(delta_vector(qd))
    if len(values) == 1:
        return True, values.pop()
    return False, None


def signature(slope_or_terms):
    """Knot signature from the twist word: walk the boundary automaton
    and count the grading-shifting twist types (positive knots get
    negative signature)."""
    if isinstance(slope_or_terms, Slope):
        if not is_knot(slope_or_terms):
            raise ValueError("signature is defined here for knots only")
        terms, mirrored = resolve_terms(slope_or_terms)
        if mirrored:
            return -signature(terms)
    else:
        terms = list(slope_or_terms)
    # only top twists at UP and right twists at RI shift the grading
    steps = list(boundary_walk(terms))
    return 1 - steps.count((UP, "T")) + steps.count((RI, "R"))


def homology_generators(qd):
    """Generators of the reduced triply-graded homology, one per
    vertex, read off a closure-frame antisymmetric-convention quiver
    presentation (the frame knot_quiver produces); in that frame every
    generator satisfies 2t - 2a - q = signature."""
    return tuple(HomologyGenerator(qd.a_vec[i],
                                   -qd.Q[i][i] - qd.q_vec[i],
                                   -qd.Q[i][i])
                 for i in range(qd.n))
