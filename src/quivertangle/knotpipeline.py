"""Knot pipeline: quiver presentations with exactly p vertices for
rational knots p/q.

Instead of acting with one crossing at a time, crossings are processed
in pairs (plus a final top-crossing-and-closure cluster), acting on
states in "almost quiver form": a state whose extra Pochhammer
numerator (q^2;q^2)_{K.d} tracks either the active mass k (flags on the
active indices) or the inactive mass j-k (flags on the inactive
indices).  Top-twist pairs require the k-type bookkeeping, right-twist
pairs the (j-k)-type; a stretch of twists that arrives with the wrong
type is processed by generic single twists followed by re-expressing
the Pochhammer numerator at the new splitting (the "re-summation"
step).

The paired actions are closed-form block transforms on the state
(indices split into the active block "+" and the inactive block "-",
in state order); L and U denote strictly lower/upper triangular
all-ones blocks, which only pair equal-size same-source blocks.

Every step works in place on the one thawed packed state of
`quiverstate` (`_Thawed`), which `_reduce_and_close` builds from the
trivial tangle and closes: a pair or the closure is one lookup in
_TRANSFORMS, which states the bookkeeping type the step needs, and one
`_apply_template`; a re-summed stretch is `_resum`.
"""

from __future__ import annotations

from itertools import compress
from operator import and_, eq, not_

from .quiverstate import (MIRROR_STEP, TWIST_STEP, Route, _absorb,
                          _gather, _ones, _trivial, _twist, _unpacked,
                          quiver_route, route_size)
from .tangles import (OP, RI, UP, boundary_after, boundary_walk, cf_value,
                      is_knot)


# Block transforms of a pair of twists or of the closure, keyed by (pair,
# boundary before): (output blocks, upper triangle of the M template).
# Output blocks are (active, source, s_shift, a_shift) with source
# "+"/"-".  Row b of the template holds its entries from the diagonal on,
# each a shift or a pair (shift, tri): entry (b, c) of output blocks is
# the input block (source of b, source of c) plus shift, plus the
# strictly lower (tri "L") or upper (tri "U") all-ones block.  Entry
# (c, b) is entry (b, c) with L and U swapped, so a symmetric M stays
# symmetric.

_P, _M_ = "+", "-"

_UPPER = {
    ("TT", UP): ([(1, _P, 0, 0), (1, _M_, -1, 0), (0, _M_, -2, 0)],
                 [[2, 0, 0], [0, (0, "L")], [0]]),
    ("TT", OP): ([(1, _P, 2, 2), (1, _M_, 1, 1), (0, _M_, 0, 0)],
                 [[-2, -3, -2], [-2, (-1, "L")], [0]]),
    ("RR", OP): ([(1, _P, 0, 0), (0, _P, -2, -1), (0, _M_, -2, -2)],
                 [[0, (1, "L"), 2], [1, 1], [2]]),
    ("RR", RI): ([(1, _P, 2, 0), (0, _P, 0, 0), (0, _M_, 0, 0)],
                 [[0, (0, "L"), 0], [-1, -2], [-2]]),
    ("TR", OP): ([(1, _P, -1, 0), (1, _M_, -1, -1), (0, _P, -2, 0),
                  (0, _M_, -2, -1), (0, _M_, -1, -1)],
                 [[0, 0, (0, "L"), 0, 1], [1, 1, (1, "L"), (2, "L")],
                  [0, 0, 0], [1, (1, "U")], [2]]),
    ("TR", RI): ([(1, _P, 1, 1), (1, _M_, 1, 1), (0, _P, 0, 0),
                  (0, _M_, 0, 0), (0, _M_, 1, 0)],
                 [[-2, -3, (-1, "L"), -2, -1], [-3, -1, (-2, "L"), (-1, "L")],
                  [0, -1, -1], [-1, (-1, "U")], [0]]),
    ("RT", UP): ([(1, _P, 0, 0), (1, _P, 1, 0), (1, _M_, 0, 0),
                  (0, _P, -1, -1), (0, _M_, -2, -1)],
                 [[1, (1, "U"), 0, (2, "L"), 1], [2, 0, (3, "L"), 1],
                  [0, 2, (1, "L")], [3, 1], [1]]),
    ("RT", OP): ([(1, _P, 2, 1), (1, _P, 3, 1), (1, _M_, 2, 0),
                  (0, _P, 1, 1), (0, _M_, 0, 0)],
                 [[-1, (-1, "U"), -1, (-1, "L"), -1], [0, -1, (0, "L"), -1],
                  [0, 0, (0, "L")], [-1, -2], [-1]]),
    # Final top crossing + North-South closure.
    ("close", UP): ([(0, _P, 0, -1), (0, _M_, -1, -1), (0, _P, 1, 1)],
                    [[3, 1, (1, "L")], [1, 0], [0]]),
    ("close", RI): ([(0, _P, 1, 1), (0, _M_, 0, -1), (0, _M_, 1, 1)],
                    [[-1, -1, -2], [1, (-1, "L")], [-2]]),
}


def _k_type_for(kind):
    """The bookkeeping rule: a T twist needs and leaves k-type flags (on
    the actives), an R twist (j-k)-type (on the inactives); the closure
    leaves (j-k)-type."""
    return kind == "T"


def _expand(pair, before, blocks, upper):
    """The _TRANSFORMS entry of an _UPPER one: (the bookkeeping type the
    template needs, as _k_type gives it; boundary after, or None for the
    closure; output blocks (active, k_flag, source, s_shift, a_shift);
    the whole M template of (shift, tri) entries).  A pair needs the
    type of its earlier twist and its later twist sets the flags, both
    by _k_type_for; the closure consumes a top crossing at UP, so it
    needs k-type there and (j-k)-type at RI."""
    if pair == "close":
        needs, after, last = before == UP, None, pair
    else:
        needs, last = _k_type_for(pair[1]), pair[0]
        after = boundary_after(boundary_after(before, pair[1]), pair[0])
    mspec = [[None] * len(blocks) for _ in blocks]
    for b, row in enumerate(upper):
        for c, entry in enumerate(row, b):
            shift, tri = entry if isinstance(entry, tuple) else (entry, None)
            mspec[b][c] = shift, tri
            mspec[c][b] = shift, {"L": "U", "U": "L"}.get(tri)
    out = [(bool(active), int(active == _k_type_for(last)), src, ds, da)
           for active, src, ds, da in blocks]
    return needs, after, out, mspec


# each _UPPER entry expanded once, in the form _apply_template reads
_TRANSFORMS = {key: _expand(*key, *value) for key, value in _UPPER.items()}


# what a template adds to any |entry| of M (its largest |shift| and a
# triangle's one) or of s and a (a block's shift)
TEMPLATE_STEP = max(
    [abs(shift) + bool(tri) for _, _, _, mspec in _TRANSFORMS.values()
     for mrow in mspec for shift, tri in mrow]
    + [abs(d) for _, _, blocks, _ in _TRANSFORMS.values()
       for *_, ds, da in blocks for d in (ds, da)])


def _knot_bound(terms):
    """A bound on every |entry| of M, s and a the knot route builds
    from terms, mirror included.  A re-summed stretch of x twists adds at
    most TWIST_STEP x + 3 (its absorb has |coeff| <= 1), a pair of twists
    TEMPLATE_STEP, and the closure TEMPLATE_STEP."""
    return (TWIST_STEP + 3) * sum(terms) + TEMPLATE_STEP + MIRROR_STEP


def _k_type(th):
    """True if the extra Pochhammer flags sit exactly on the actives
    (length k); False if exactly on the inactives (length j-k)."""
    if th.flags == th.active:
        return True
    if not any(map(eq, th.flags, th.active)):
        return False
    raise ValueError("state bookkeeping is neither k nor j-k type")


def _apply_template(th, step):
    """The block transform of step (a pair TT, RR, RT or TR, the later
    twist first, or "close") on a thawed state, in place: its
    _TRANSFORMS entry at th.obj, whose stated bookkeeping type the state
    must have, else ValueError.  The state's actives form the "+" block
    and its inactives the "-" block, each in state order (the
    denotation is permutation-covariant).

    Each input row, and s and a, is spread once: its slots of each
    source moved to every output block of that source.  An output row
    is its input row's spread plus one packed vector of its block's
    shifts and triangles; the triangles move by one slot per row.  s
    and a add one packed vector of the blocks' shifts, and the classes
    and flags of an output block are its constants."""
    if (step, th.obj) not in _TRANSFORMS:
        raise ValueError(f"no {step} transform at boundary {th.obj}")
    needs, out_obj, blocks, mspec = _TRANSFORMS[step, th.obj]
    if _k_type(th) != needs:
        raise ValueError(f"{step} at {th.obj} needs "
                         f"{'k' if needs else '(j-k)'}-type bookkeeping")
    cls, w = th.active, th.w
    members = {_P: list(compress(range(len(cls)), cls)),
               _M_: list(compress(range(len(cls)), map(not_, cls)))}
    offsets, ones, n = [], [], 0  # ones: each block's slots
    for block in blocks:
        size = len(members[block[2]])
        offsets.append(n)
        ones.append(_ones(n, n + size, w))
        n += size
    pieces = []  # (right, mask, left shifts): one per run of a source
    for src, cols in members.items():
        lefts = [w * off for block, off in zip(blocks, offsets)
                 if block[2] == src]
        pieces += [(right, mask, [left + l for l in lefts])
                   for right, mask, left in _gather(cols, 0, w)]
    # in place, so that each input row is freed as its spread replaces
    # it; s and a are spread as two more rows
    rows = th.rows
    rows += (th.s, th.a)
    for x, row in enumerate(rows):
        spread = 0
        for right, mask, lefts in pieces:
            piece = (row >> right) & mask
            for left in lefts:
                spread |= piece << left
        rows[x] = spread
    a, s = rows.pop(), rows.pop()
    out, th.active, th.flags = [], [], []
    for (active, kflag, src, ds, da), mrow, own in zip(blocks, mspec, ones):
        s += ds * own
        a += da * own
        # the block's vector at its first row, and its change per row
        extra = step = 0
        for (shift, tri), off, o in zip(mrow, offsets, ones):
            if shift:
                extra += shift * o
            if tri == "L":
                step += 1 << (w * off)
            elif tri == "U":  # o less its first slot; a triangle pairs
                # blocks of one source, so an empty o leaves no row here
                extra += o - (1 << (w * off))
                step -= 1 << (w * (off + 1))
        for x in members[src]:
            out.append(rows[x] + extra)
            extra += step
            step <<= w
        size = len(members[src])
        th.active += [active] * size
        th.flags += [kflag] * size
    th.rows, th.s, th.a = out, s, a
    th.obj = out_obj or th.obj


def _resum(th, kind, count):
    """Process, in place, a whole stretch of count twists of kind whose
    bookkeeping type is the wrong one for it: act with generic single
    twists (the Pochhammer factor rides along on the flagged indices),
    then split the flagged mass of the class t = _k_type_for(kind) so
    the numerator matches the new active/inactive decomposition, which
    leaves the flags on the class that is not t:

        T: (q^2;q^2)_{j-k_old} = (q^2;q^2)_{j-k} (q^{2+2(j-k)};q^2)_{k-k_old}
        R: (q^2;q^2)_{k_old} = (q^2;q^2)_k (q^{2+2k};q^2)_{k_old-k}"""
    for _ in range(count):
        _twist(th, kind)
    t = _k_type_for(kind)
    cls = th.active  # the flagged indices of class t:
    flagged = map(and_, cls if t else map(not_, cls), th.flags)
    _absorb(th, list(compress(range(len(cls)), flagged)),
            (int(t), int(not t)))
    th.flags = [int(active != t) for active in th.active]


def _reduce(terms, th):
    """The paired-crossing algorithm over the continued fraction, run
    in place on the thawed trivial state th, withholding the final top
    crossing (the closure consumes it).  Yields the name of each step
    once it is done: a pair TT, RR, RT or TR (the later twist first), or
    a re-summed stretch T^x or R^x."""
    if len(terms) % 2 == 0 or any(t < 1 for t in terms):
        raise ValueError(f"bad continued fraction {terms}: need an "
                         "odd-length list of positive integers")
    slope = cf_value(terms)
    if not is_knot(slope):
        raise ValueError(f"{slope} is a two-component link: the knot "
                         "route needs an odd p; use --pipeline link")
    counts = list(terms)
    counts[-1] -= 1
    i = 0
    while i < len(counts):
        kind = "T" if i % 2 == 0 else "R"
        x = counts[i]
        if x == 0:
            i += 1
            continue
        natural = _k_type(th) == _k_type_for(kind)
        if not natural:
            _resum(th, kind, x)
            yield f"{kind}^{x}"
            i += 1
            continue
        while x >= 2:
            _apply_template(th, kind * 2)
            yield kind * 2
            x -= 2
        if x == 1:
            if i + 1 == len(counts) or counts[i + 1] < 1:
                raise ValueError("dangling single twist cannot be paired")
            other = "R" if kind == "T" else "T"
            pair = other + kind  # kind acts first
            _apply_template(th, pair)
            yield pair
            counts[i + 1] -= 1
        i += 1


def _reduce_and_close(terms, bound):
    """_reduce on the trivial state, then the closure, which consumes the
    withheld top crossing (antisymmetric convention, diagram frame)."""
    th = _trivial(bound)
    for _ in _reduce(terms, th):
        pass
    _apply_template(th, "close")
    return th


KNOT_ROUTE = Route("knot", _reduce_and_close, polynomial=True,
                   vertices=lambda rep: rep.p, bound=_knot_bound)


def knot_quiver(slope_or_terms):
    """The closed state (p vertices) of the knot route on a rational
    knot, in the frame of the standard twist diagram (its framing is the
    diagram writhe).  A slope is built from the closable representative
    of its plan, mirrored back at the data level when only a mirror
    representative closes, so that it always presents the slope."""
    return quiver_route(slope_or_terms, KNOT_ROUTE)


def delta_vector(generators):
    """Per-vertex delta-grading q_i - Q_ii - 2 a_i of a closed state
    (antisymmetric convention; it is the same in every frame), read off
    its homology_generators, so the diagonal is read once: a generator
    (a_i, -Q_ii - q_i, -Q_ii) has 2t - 2a - q equal to it."""
    return tuple(2 * t - 2 * a - q for a, q, t in generators)


def signature(slope_or_terms):
    """Knot signature from the twist word of the knot route's plan
    (route_size, so a slope over its vertex bound is refused): walk its
    boundaries and count the grading-shifting twist types (positive
    knots get negative signature)."""
    plan = route_size(slope_or_terms, KNOT_ROUTE)
    if not is_knot(plan.slope):
        raise ValueError("signature is defined here for knots only")
    # only top twists at UP and right twists at RI shift the grading
    steps = list(boundary_walk(plan.terms))
    sig = 1 - steps.count((UP, "T")) + steps.count((RI, "R"))
    return -sig if plan.mirrored else sig


def homology_generators(th):
    """Generators of the reduced triply-graded homology, one per
    vertex, read off the diagonal, s and a of the closed state
    knot_quiver builds (closure frame, antisymmetric convention), each
    an (a, q, t) trigrading; in that frame every generator satisfies
    2t - 2a - q = signature."""
    diagonal, s, a = _unpacked(th)
    return tuple((a_i, -d - s_i, -d) for d, s_i, a_i in zip(diagonal, s, a))
