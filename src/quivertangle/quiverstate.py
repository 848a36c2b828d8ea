"""Generating-function states for rescaled skein evaluations.

A state encodes the multi-index sum

    sum_d (-q)^{S.d} a^{A.d} q^{d.M.d^t} (q^2;q^2)_{K.d}
          * [sum d; d]_+ * X[sum d, sum_active d]

through an ordered list of index records (active flag, membership flag K
in the single extra Pochhammer numerator, linear -q exponent s, linear a
exponent a) and an integer matrix M for the quadratic q-exponent.
[j; d]_+ is the positive q-multinomial, the one the quiver series of
the exported data reads.  M is symmetric on every route (a step
bumps entry (i, l) by what it bumps (l, i), and `_absorb` gives each
new row and column the same values), so closure exports M as Q as it
stands.

A state is held one way, as a `_Thawed`: the classes of its indices as
two lists (active, and membership in the extra Pochhammer numerator),
and s, a and each row of M as one packed int of 16-bit slots, so a step
costs a few bigint operations per row.  `_twist`, `_absorb` and
`_close` work on it in place; a route runs its whole word, its closure
and any mirror on one thawed state and returns it closed, with its
framing and the bound its slots were sized for.  Export (`framing_shift`,
`q_invert`) is the one place where a closed state is decoded, in the
output frame it is given: s and a once each, and one packed affine map
per row, the rows joined into the low and high byte planes of one flat
buffer, and one bytes compare of each plane that fixes the entries with
its transpose; the canonical frame then subtracts the least entry, by
one byte translate when every entry fits a byte.  That buffer is a byte
array whenever every entry fits a byte, else 16-bit, and it is the one
form of Q past export (QuiverData.flat): the writer prints it, a byte
array by its bytes as they are, and `state_expand`, which takes a state
as its records (active, extra_poch, s, a) and M flat in row-major order,
expands it to its coefficients per color.

Every step of the link route is one or two calls of one kernel,
`_absorb`.  A twist acts in "product form": multiply by a
twist-dependent monomial and Pochhammer symbol, then absorb the
Pochhammer by splitting summation indices.  The product form
accumulates an extra q^{k^2} (k = sum of active indices) relative to
the plain twist action; the twist bridges between the two forms by
adding an all-ones block on the active indices of M before the rule
(one more bump of the rule's) and removing one on the active indices
after the split (the kernel's twist flag).  The monomial's shifts of s
and a and its bumps, the Pochhammer's coefficients and the bridge each
depend only on an index's class, active or inactive (_TWISTS lists them
per twist), so the kernel builds each as a packed vector once per class
and changes every old row, and s and a, in one pass.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import compress
from operator import not_
from typing import Callable, NamedTuple

from .qseries import LaurentPoly, ZERO, poch_q2, qmultinomial
from .tangles import (OP, RI, UP, Slope, boundary_after, cf_value,
                      refuse_over, resolve_terms, twist_sequence, writhe)


class QuiverData(NamedTuple):
    """Final quiver presentation of a generating function:

        sum_d x^{sum d} (-q)^{q_vec.d} a^{a_vec.d} q^{d.Q.d^t}
              / prod_i (q^2;q^2)_{d_i}

    with Q symmetric (off-diagonal entries count once in each of the two
    symmetric positions).  Q is held as flat, one array of its n^2
    entries in row-major order, which _export fills and checks: a byte
    array whenever every entry fits a byte, signed 'b' in an integer or
    raw frame and unsigned 'B' in the canonical frame, else 16-bit 'h'
    or 'H'.  Readers take it as any sequence of ints; the writer prints
    a byte array by its bytes."""
    flat: array
    a_vec: tuple
    q_vec: tuple
    framing: int
    color_convention: str  # antisymmetric | symmetric

    @property
    def n(self):
        return len(self.q_vec)


class _Thawed:
    """A state the kernel (_twist, _absorb, _close, and the knot
    route's templates) works on in place, built from its boundary obj,
    its records (active, extra_poch, s, a) and M packed one int per row.
    It holds the classes as two lists, active and flags (the
    extra_poch), and s and a packed like a row: row i is sum_l (M_il +
    2^(W-1)) 2^(W l), one offset-binary slot of W bits per entry, so
    adding a packed vector adds entrywise, with no carry between slots,
    as long as every entry stays within +-(2^(W-1) - 1).  The state
    holds bound, proven for the whole computation of its route on M, s
    and a, and slot_width checks that it fits before anything is packed,
    never the entries a route produces.  A closed state also records the
    framing of its quiver data."""
    __slots__ = ("obj", "active", "flags", "s", "a", "rows", "bound",
                 "framing")

    def __init__(self, obj, records, rows, bound):
        slot_width(bound)
        self.obj, self.rows = obj, rows
        self.active = [r[0] for r in records]
        self.flags = [r[1] for r in records]
        self.s, self.a = (_pack([r[i] for r in records]) for i in (2, 3))
        self.bound, self.framing = bound, 0

    @property
    def n(self):
        return len(self.rows)


# No step moves any entry of M, s or a by more than its constant.  A
# step reads slots only where its spread copies target slots (_absorb's,
# and the knot route's templates), off each old row, s and a as the
# step found them, so within the bound before the step.  Every other
# change of a packed int is an add, exact whatever its slots hold in
# between, so only the final slots must lie in range:
# - _absorb with |bump| <= b and |coeff| <= c: an entry of M gains at
#   most a bump, two coefficients, a one and, with the twist flag, the
#   bridge's 1: b + 2c + 1, plus 1 in a twist; s gains at most |ds| + 1
#   and a at most |da| + |const_a|;
# - _twist: 6 on M (b = 2, c = 1, and the twist flag) and 2 on s and a;
#   TWIST_STEP keeps the 8 of its bumps, absorb and bridge as separate
#   passes (4 + 3 + 1), since every route's bound, and with it the
#   frames export admits, is sized from it;
# - _close: on M at UP 7 (b = c = 2), at OP 4 (b = c = 1) and then 3
#   (c = 1); at most 3 on s and a;
# - _mirror: |c| + |e| <= 2 on M, 1 on s and 0 on a.
# A re-summed stretch of x twists moves s and a by 2x + 1, within its
# TWIST_STEP x + 3, and a template by TEMPLATE_STEP at most, so |s| and
# |a| stay within either route's bound.
TWIST_STEP = 8
CLOSE_STEP = 7
MIRROR_STEP = 2

W = 16  # bits per slot: struct format and array typecode "h" hold one


def slot_width(bound):
    """W, when every entry of absolute value at most bound fits a W-bit
    slot; otherwise ValueError, naming the bound.  Every admitted input
    fits: a route's bound grows with the term sum of its CF, which is at
    most the numerator p, so at MAX_VERTICES the largest are 22,523 on
    the knot route (2047/1) and 8,193 on the link route (1023/1)."""
    if bound >= 1 << (W - 1):
        raise ValueError(f"entries up to {bound} do not fit a {W}-bit "
                         "slot")
    return W


def _ones(lo, hi):
    """The packed vector with 1 in slots lo..hi-1."""
    return int.from_bytes((1).to_bytes(W // 8, "little") * (hi - lo),
                          "little") << (W * lo)


def _slots(flags):
    """The packed vector with 1 in slot l for each true flags[l], 0 in
    the others."""
    step = W // 8
    buf = bytearray(len(flags) * step)
    buf[::step] = bytes(flags)
    return int.from_bytes(buf, "little")


def _gather(cols, base):
    """(right shift, mask, left shift) of each run of consecutive
    entries of cols: (row >> right & mask) << left, summed over the
    runs, moves slot cols[k] of a row to slot base + k."""
    runs, first = [], 0  # first: the k that starts the run
    for k in range(1, len(cols) + 1):
        if k == len(cols) or cols[k] != cols[k - 1] + 1:
            runs.append((W * cols[first], (1 << (W * (k - first))) - 1,
                         W * (base + first)))
            first = k
    return runs


def _pack(values):
    """A row of entries, or s or a, as one int of offset-binary slots."""
    n = len(values)
    raw = struct.pack(f"<{n}h", *values)
    return int.from_bytes(raw, "little") ^ (_ones(0, n) << (W - 1))


# per class (inactive, active): no shift, and no bump
_ZERO = (0, 0)
_NONE = (_ZERO, _ZERO)


def _trivial(bound):
    """The trivial upward tangle, thawed for a route whose entries stay
    within bound: one inactive index, all exponents 0."""
    return _Thawed(UP, [(False, 0, 0, 0)], [_pack((0,))], bound)


def _flat(rows, n):
    """The byte planes (low, high) of the entries of n offset-binary
    packed rows of n slots (any iterable), row-major: the low and the
    high byte of each slot, read off the rows' little-endian bytes
    joined.  A slot keeps its entry's low byte; high is None when every
    entry fits a signed byte, whose slot's high byte its low byte
    fixes (_OFFSET_SIGN)."""
    data = b"".join(row.to_bytes(n * W // 8, "little") for row in rows)
    low, high = data[::2], data[1::2]
    del data
    return low, None if high == low.translate(_OFFSET_SIGN) else high


_BYTES = bytes(range(256))
_FLIP = _BYTES[128:] + _BYTES[:128]  # each byte with its top bit flipped
# the offset-binary high byte of a 16-bit entry that fits a signed byte,
# keyed by its low byte: the low byte's sign, with its top bit flipped
_OFFSET_SIGN = b"\x80" * 128 + b"\x7f" * 128
_LOW = 0 if sys.byteorder == "little" else 1  # an entry's low byte


def _check_symmetric(planes, n):
    """ValueError unless each byte plane of an n x n buffer, row-major,
    equals its transpose; the planes given must fix every entry (see
    _flat)."""
    for plane in planes:
        if b"".join(plane[i::n] for i in range(n)) != plane:
            raise ValueError("Q must be symmetric")


def _joined(typecode, low, high):
    """The 16-bit array of the entries with these byte planes."""
    flat = array(typecode, [0]) * len(low)
    with memoryview(flat).cast("B") as view:
        view[_LOW::2], view[1 - _LOW::2] = low, high
    return flat


def _vector(packed, n):
    """The n entries of a packed row or vector as a signed W-bit array,
    the inverse of _pack: one xor, one to_bytes and one array."""
    raw = packed ^ (_ones(0, n) << (W - 1))
    flat = array("h", raw.to_bytes(n * W // 8, "little"))
    if sys.byteorder == "big":
        flat.byteswap()
    return flat


def _rebased(low, high, n):
    """The entries of the n x n buffer whose offset-binary byte planes
    _flat gives, minus the least of them, as an unsigned array, and that
    least entry.  The array is 'B' exactly when every entry it holds
    fits a byte, else 'H'.

    When high is None every entry x fits a signed byte, and its low
    byte with the top bit flipped, x + 128, orders as x does.  The least
    diagonal entry is one that is present; one translate deletes every
    entry from it up, and the least is the least of what is left, or
    that diagonal entry.  One translate by a rotation of the byte values
    then subtracts it.  Else one subtraction on the whole buffer in
    offset binary, where no slot borrows."""
    if high is None:
        cand = min(low[::n + 1].translate(_FLIP))
        rest = low.translate(None, _FLIP[cand:]).translate(_FLIP)
        least = min(rest, default=cand) - 128
        shift = -least % 256
        flat = array("B", low.translate(_BYTES[shift:] + _BYTES[:shift]))
        return flat, least
    flat = _joined("H", low, high)
    least = min(flat)
    raw = int.from_bytes(flat, sys.byteorder)
    del flat
    raw -= least * _ones(0, len(low))
    data = raw.to_bytes(2 * len(low), sys.byteorder)
    del raw
    upper = data[1 - _LOW::2]
    flat = (array("B", data[_LOW::2]) if upper.count(0) == len(upper)
            else array("H", data))
    return flat, least - (1 << (W - 1))


def _affine(rows, sigma, K, e):
    """The offset-binary packed rows of sigma M + K J + e I (sigma =
    +-1, J all ones) from those of M, one at a time.  Slot x + 2^(W-1)
    becomes sigma x + K + e [i = l] + 2^(W-1) under one add or
    subtraction per row, of the constant K + (1 - sigma) 2^(W-1) in
    every slot, and one add of e in slot i.  The caller proves that
    every new slot lies in [0, 2^W)."""
    base = (K + (1 - sigma) * (1 << (W - 1))) * _ones(0, len(rows))
    unit = e
    for row in rows:
        yield (base + row if sigma > 0 else base - row) + unit
        unit <<= W


def _unpacked(th):
    """(the diagonal entries M_ii, s, a) of a thawed state, each read
    off its packed rows or vector once."""
    mask, half = (1 << W) - 1, 1 << (W - 1)
    return ([((row >> (W * i)) & mask) - half
             for i, row in enumerate(th.rows)],
            _vector(th.s, th.n), _vector(th.a, th.n))


def state_expand(records, M, N):
    """Expansion of the state with records (active, extra_poch, s, a)
    and quadratic form M (any integers, not necessarily symmetric),
    given flat: its n^2 entries in row-major order, n = len(records), as
    any sequence of ints that slices (QuiverData.flat, a byte array
    whenever every entry fits a byte and else a 16-bit one, or a list):
    for each color j <= N, the j+1 coefficients of X[j,k] of its
    rescaled skein element, as LaurentPolys.

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
    n = len(records)
    diag = M[::n + 1]
    # row i of M + M^t past the diagonal, from row i of M past it and
    # column i below it: what an entry at i adds to lin_l for the later
    # indices l, the only ones its subtree reads
    cross = [[u + v for u, v in zip(M[i * (n + 1) + 1:(i + 1) * n],
                                    M[(i + 1) * n + i::n])]
             for i in range(n)]
    cls = [2 * active + flag for active, flag, _, _ in records]
    present = [set()]  # the classes at indices >= i, built from the end
    for c in reversed(cls):
        present.append(present[-1] | {c})
    present.reverse()
    # per entry x and parity of the running s.d: what a leaf at index i
    # adds besides x lin_i, as (q exponent, a exponent, sign, class)
    local = [None] + [
        [[(x * s + diag[i] * x * x, x * a,
           -1 if (odd + x * s) % 2 else 1, c)
          for i, ((_, _, s, a), c) in enumerate(zip(records, cls))]
         for odd in (0, 1)]
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
            active, flag, s, a = records[i]
            mii, row = diag[i], cross[i]
            rest = lin[i + 1 - start:]
            for y in range(1, x):
                parts.append(y)
                walk(i + 1, j + y, k + y if active else k,
                     kdot + y * flag, sdot + y * s, adot + y * a,
                     quad + mii * y * y + li * y,
                     [u + y * v for u, v in zip(rest, row)])
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
    return coeffs


def _absorb(th, targets, coeff, const_a=0, ds=_ZERO, da=_ZERO, bump=_NONE,
            twist=False):
    """One step of the thawed state th, in place: shift each index's
    (s, a) by (ds, da) and bump M, multiply by (q^2 a^{const_a}
    q^{2 coeff.d}; q^2)_D, D the sum of the target indices, and absorb
    it by splitting each target index into (beta, alpha).  coeff, ds, da
    and bump are per class: each a pair (inactive, active) keyed by the
    class of an index, bump's a pair (delta on the inactive columns,
    delta on the active ones) for a row of that class.

    Beta stays in place with its parent's flag, s and a; the alphas are
    appended at the end in target order, carry the per-unit monomial
    -q a^{const_a}, and receive the quadratic cross-term bookkeeping
    that rewrites the positive multinomial over the coarse indices as
    the one over the split ones.  An alpha's coefficient, bumps and
    shifts are its parent's, by the parent's class.  Each half keeps its
    parent's class, except in a twist: there every alpha is active,
    every beta inactive, and -1 is added on every entry (i, l) of two
    indices active afterwards (the q^{k^2} bridge's second half)."""
    if len(set(targets)) != len(targets):
        raise ValueError("absorb targets must be distinct")
    cls, rows = th.active, th.rows
    n, m = len(cls), len(targets)

    # Each alpha starts as a copy of its target (a column, then a row,
    # and a slot of s and a) and gains the cross terms 2 (coeff.d)
    # alpha_i, alpha_i^2 and the ordered cross terms 2 alpha_i (d_1 +
    # ... + d_{i-1}): in row alpha_i coeff, ones on the alpha block and
    # on targets l < i; in every row y, coeff_y on the alpha columns, and
    # in row target l one more on the alphas after alpha_l.  Packed, each
    # old row, s, a and the active columns copy their target slots to
    # their top slots (one shift and mask per run, _gather); a row then
    # adds its class's vector: its bumps (a target column's land on its
    # copy), its coefficient on the alpha columns and the bridge; s and a
    # add the shift of each slot's class, and the alphas' 1 and const_a.
    moves = _gather(targets, n)
    span = _ones(n, n + m)  # the alpha columns
    old = _slots(cls)  # the active columns before the step
    act, s, a, picked = old, th.s, th.a, 0  # act: of the active parents
    for right, mask, left in moves:
        act |= ((act >> right) & mask) << left
        s |= ((s >> right) & mask) << left
        a |= ((a >> right) & mask) << left
        picked |= ((span >> left) & mask) << right  # the target columns
    inact = _ones(0, n + m) - act
    th.s = s + ds[0] * inact + ds[1] * act + span
    th.a = a + da[0] * inact + da[1] * act + const_a * span
    # a twist's columns active afterwards: old non-targets, and the alphas
    bridged = -(old - (old & picked) + span) if twist else 0
    (b00, b01), (b10, b11) = bump
    adds = [b00 * inact + b01 * act + coeff[0] * span,
            b10 * inact + b11 * act + coeff[1] * span + bridged]
    for y, row in enumerate(rows):
        spread = row
        for right, mask, left in moves:
            spread |= ((row >> right) & mask) << left
        rows[y] = spread + adds[cls[y]]
    # an alpha row is its target row plus the coefficient columns, the
    # alpha block and, of an inactive parent, the bridge; a beta row
    # gains the "after" columns and sheds the bridge of an active parent
    base = coeff[0] * inact + coeff[1] * act + span
    lift, fix = [base + bridged, base], [0, -bridged]
    earlier, after = 0, span  # the targets before alpha_l, the alphas after
    for l, t in enumerate(targets, n):
        row, c = rows[t], cls[t]
        rows.append(row + lift[c] + earlier)
        earlier += 1 << (W * t)
        after -= 1 << (W * l)
        rows[t] = row + after + fix[c]
    th.flags += list(map(th.flags.__getitem__, targets))
    if twist:
        for t in targets:
            cls[t] = False
        cls += [True] * m
    else:
        cls += list(map(cls.__getitem__, targets))


# The plain twist actions, keyed by (kind, boundary before), each one
# step of _absorb between the two halves of the q^{k^2} bridge: (target
# class, ds, da, bump, coeff, const_a), the shifts of s and a, bumps and
# coefficients per class as _absorb takes them.  The bumps hold the
# rule's monomial and the bridge's ones on the active block (in a T
# twist the bridge's and the rule's act x act make 2); the targets are
# the inactives for T and the actives for R.  The alphas are active,
# they carry the new-crossing strand pair, and every beta is inactive:
# an R twist demotes the old active mass.
_TWISTS = {
    # (-q)^{k-j} q^{k^2} (q^{2+2k}; q^2)_{j-k}
    ("T", UP): (False, (-1, 0), _ZERO, (_ZERO, (0, 2)), (0, 1), 0),
    # (-q)^k a^k q^{k^2-2jk} (q^{2+2k};q^2)_{j-k}
    ("T", OP): (False, (0, 1), (0, 1), ((0, -1), (-1, 0)), (0, 1), 0),
    # (-q)^k a^k q^{k^2-2jk} (a q^{2+2k-2j};q^2)_{j-k}
    ("T", RI): (False, (0, 1), (0, 1), ((0, -1), (-1, 0)), (-1, 0), 1),
    # (-q)^{-j} a^{-j} q^{j^2} (a q^{2-2k}; q^2)_k
    ("R", UP): (True, (-1, -1), (-1, -1), ((1, 1), (1, 2)), (0, -1), 1),
    # (-q)^{-j} a^{k-j} q^{j^2-2jk} (q^{2+2j-2k}; q^2)_k
    ("R", OP): (True, (-1, -1), (-1, 0), ((1, 0), _ZERO), (1, 0), 0),
    # q^{-j^2} (q^{2+2j-2k}; q^2)_k
    ("R", RI): (True, _ZERO, _ZERO, ((-1, -1), (-1, 0)), (1, 0), 0),
}


def _twist(th, kind):
    """The plain twist action of kind T or R on a thawed state, in
    place, boundary included: plain states expand to exactly the
    rescaled skein evaluation.  One _absorb of its _TWISTS step: the
    product-form rule (multiply by a monomial and a Pochhammer
    prefactor, then absorb) between the two halves of the q^{k^2}
    convention bridge, k the active sum before and after."""
    if (kind, th.obj) not in _TWISTS:
        raise ValueError(f"no {kind!r} twist at boundary {th.obj}")
    target, ds, da, bump, coeff, const_a = _TWISTS[kind, th.obj]
    cls = th.active
    targets = list(compress(range(len(cls)),
                            cls if target else map(not_, cls)))
    _absorb(th, targets, coeff, const_a, ds, da, bump, twist=True)
    th.obj = boundary_after(th.obj, kind)


def _close(th):
    """Closure of a full tangle state (the link-route algorithm), in
    place: substitute the closure scalar for X[j,k], cancel the
    rescaling numerator (q^2;q^2)_j against the closure denominator and
    absorb the remaining Pochhammer numerators.  Afterwards s, a and
    the rows are the exported vertices and Q, in the frame of the twist
    diagram: the caller records that frame (the diagram writhe) as the
    framing, and export takes it to the output frame."""
    obj, cls = th.obj, th.active
    if obj not in (UP, OP):
        raise ValueError(f"cannot close {obj} North-South")
    if any(th.flags):
        raise ValueError("closure needs a state with no extra "
                         "Pochhammer flags")
    # the positive multinomial is (q^2;q^2)_{sum d} over plain
    # Pochhammer denominators; its numerator is a pending cancellation
    if obj == UP:
        # X[j,k] -> a^{-j} q^{j^2+k^2} (a^2 q^{2-2j-2k};q^2)_j / (q^2;q^2)_j
        _absorb(th, list(range(len(cls))), (-1, -2), 2, _ZERO,
                (-1, -1), ((1, 1), (1, 2)))
    else:
        # X[j,k] -> a^{k-j} q^{(j-k)^2} (a^2 q^{2-2j};q^2)_{j-k}
        #           / (q^2;q^2)_{j-k}
        # The (q^2;q^2)_j numerator cancels only partially; the quotient
        # (q^{2+2(j-k)};q^2)_k is absorbed over the active indices.
        act = list(compress(range(len(cls)), cls))
        inact = list(compress(range(len(cls)), map(not_, cls)))
        _absorb(th, act, (1, 0), 0, _ZERO, (-1, 0), ((1, 0), _ZERO))
        _absorb(th, inact, (-1, -1), 2)


# (sigma, c, e) of the reflection Q_il -> -Q_il - 1 + [i = l] that
# q_invert and _mirror(polynomial=True) apply
_Q_INVERT = (-1, -1, 1)


def _mirror(th, polynomial):
    """Mirror image at the quiver-data level (q -> q^{-1}, a -> a^{-1}
    on the invariants the data encodes) of a closed thawed state, in
    place: one _affine pass over its packed rows and one affine map on
    each of s and a.  Its framing is the caller's to record (route_size
    negates the writhe).

    polynomial=True mirrors the numerator polynomials P_j = (coefficient
    of x^j) * (q^2;q^2)_j: inverting q in the positive multinomial
    [j; d]_+ costs q^{-2 e2(d)}, a quadratic form with zero diagonal and
    all-(-1) off-diagonal, so Q -> -Q with off-diagonal decrements and
    q_vec -> -q_vec (the reflection q_invert also applies).
    polynomial=False mirrors the bare coefficients: each denominator
    flips by (q^{-2};q^{-2})_d = (-1)^d q^{-d(d+1)} (q^2;q^2)_d,
    contributing (-1)^d q^{d(d+1)} per index, so Q -> -Q with diagonal
    increments and q_vec -> 1 - q_vec."""
    _, c, e = _Q_INVERT if polynomial else (-1, 0, 1)
    q_shift = 0 if polynomial else 1
    th.rows = list(_affine(th.rows, -1, c, e))
    # slot x + 2^(W-1) of s or a becomes k - x + 2^(W-1): k + 2^W less
    # the slot, in every slot at once
    ones = _ones(0, th.n)
    th.s = (q_shift + (1 << W)) * ones - th.s
    th.a = (1 << W) * ones - th.a


class Route(NamedTuple):
    """A route from closable CF terms to a closed thawed state."""
    name: str  # knot | link, as --pipeline names it
    close: Callable  # close(terms, bound), its slots sized for bound
    polynomial: bool  # the mirror its data takes (see _mirror)
    vertices: Callable  # its vertex count on the slope of the terms
    bound: Callable  # bound(terms) on every |entry| of M, mirror included


# the most vertices a route may build: the link route's cost grows
# about as n^3 and its output as n^2; a larger quiver is refused
MAX_VERTICES = 2048


class Plan(NamedTuple):
    """What a route builds for one input, chosen before anything is
    built (route_size)."""
    slope: Slope  # the input slope
    route: Route
    terms: list  # the closable CF terms
    mirrored: bool  # whether they are a mirror representative
    n: int  # the vertex count
    framing: int  # the frame of the closed state
    bound: int  # on every |entry| of M, as Route.bound


def route_size(slope_or_terms, route):
    """The Plan of route for the input, read off its closable CF terms
    before anything is built; a Plan of route is returned as it is.
    The framing is the diagram writhe, negated for a mirror
    representative.  More than MAX_VERTICES vertices raises ValueError,
    naming the count and the bound.

    Every representative of a slope has its p and a route's count
    grows with q, so a slope with p over MAX_VERTICES is refused on
    route.vertices(p/1), at least p on both routes, before a
    representative is sought: exact on the knot route (p), a least count
    on the link route (2(p + 1))."""
    if isinstance(slope_or_terms, Plan):
        if slope_or_terms.route is not route:
            raise ValueError(f"not a plan of the {route.name} route")
        return slope_or_terms
    if isinstance(slope_or_terms, Slope) and slope_or_terms.p > MAX_VERTICES:
        p = slope_or_terms.p
        least = route.vertices(Slope(p, 1))
        refuse_over("vertex count", least, MAX_VERTICES,
                    least < route.vertices(Slope(p, p - 1)))
    terms, mirrored = resolve_terms(slope_or_terms)
    rep = cf_value(terms)
    n = route.vertices(rep)
    refuse_over("vertex count", n, MAX_VERTICES)
    framing = writhe(terms)
    slope = slope_or_terms if isinstance(slope_or_terms, Slope) else rep
    return Plan(slope, route, terms, mirrored, n,
                -framing if mirrored else framing, route.bound(terms))


def quiver_route(slope_or_terms, route):
    """The tail both routes share: the closed thawed state route builds
    from the closable CF terms of the input's plan (route_size),
    mirrored back (_mirror) when only a mirror representative closes,
    with the plan's framing.  Export decodes it."""
    plan = route_size(slope_or_terms, route)
    th = route.close(plan.terms, plan.bound)
    if plan.mirrored:
        _mirror(th, route.polynomial)
    th.framing = plan.framing
    return th


def _link_bound(terms):
    """A bound on every |entry| of M the link route builds from terms,
    mirror included."""
    return TWIST_STEP * sum(terms) + CLOSE_STEP + MIRROR_STEP


def _twist_and_close(terms, bound):
    th = _trivial(bound)
    for kind in twist_sequence(terms):
        _twist(th, kind)
    _close(th)
    return th


LINK_ROUTE = Route("link", _twist_and_close, polynomial=False,
                   vertices=lambda rep: 2 * (rep.p + rep.q),
                   bound=_link_bound)


def link_quiver(slope_or_terms):
    """The closed state of the one-crossing-at-a-time route: plain
    twists followed by the closure, 2(p+q) vertices for the
    representative p/q it closes.  Its framing is the diagram writhe;
    mirror representatives (needed for some slopes) are substituted at
    the data level."""
    return quiver_route(slope_or_terms, LINK_ROUTE)


def export_range(th, frame, symmetric):
    """(lo, hi), bounds on every entry of the Q that export gives in the
    output frame for th, a closed state or its Plan (both carry its
    framing and bound), proven from the bound alone (see _export):
    [0, 2 bound + 1] in the canonical frame; else, with f the shift to
    the frame, |sigma (x + f) + c + e [i = l]| <= bound + |f + sigma c|
    + e.  A frame where that passes 2^(W-1) - 1, the signed slot's
    largest entry, is refused with ValueError, naming the frames the
    quiver takes."""
    if frame == "canonical":
        return 0, 2 * th.bound + 1
    sigma, c, e = _Q_INVERT if symmetric else (1, 0, 0)
    frame = th.framing if frame == "raw" else frame
    reach = th.bound + abs(frame - th.framing + sigma * c) + e
    if reach >= 1 << (W - 1):
        slack = (1 << (W - 1)) - 1 - th.bound - e
        center = th.framing - sigma * c
        raise ValueError(
            f"frame {frame} is out of range: with entries bounded by "
            f"{th.bound} in frame {th.framing}, the quiver takes frames "
            f"{center - slack} to {center + slack}")
    return -reach, reach


def _export(th, frame, symmetric):
    """Quiver data of the closed state th in the output frame, in the
    antisymmetric color convention or, when symmetric, after the switch
    to the symmetric one.  The frame is an integer, "raw" (the state's
    own) or "canonical"; with f its shift from th.framing, Q -> sigma
    (Q + f) + c + e I, q_i -> sigma (q_i - f), a_i -> a_i - f: one
    _affine pass decoded once into the byte planes of one flat buffer
    (_flat), whose transposes are compared with them as bytes: the low
    plane alone when every entry fits a signed byte, else both.  The
    state is left as it was.

    An integer or raw frame must pass export_range; its Q is signed:
    the low plane as it is, 'b', when every entry fits a signed byte,
    else 'h'.  The canonical frame is the one whose least entry of Q
    is 0.  Its Q is decoded in the raw frame first, where sigma x + c +
    e [i = l] lies in [-bound - 1, bound], a signed slot; _rebased then
    finds the least entry and subtracts it from every entry, which
    leaves them in [0, 2 bound + 1]: an unsigned 'B' array when they
    all fit a byte, else 'H'."""
    if not isinstance(th, _Thawed):
        raise TypeError("export takes a closed state, whose quiver data "
                        "is in the antisymmetric color convention")
    sigma, c, e = _Q_INVERT if symmetric else (1, 0, 0)
    canonical = frame == "canonical"
    if canonical:
        f = 0
    else:
        export_range(th, frame, symmetric)
        f = 0 if frame == "raw" else frame - th.framing
    n = th.n
    low, high = _flat(_affine(th.rows, sigma, sigma * f + c, e), n)
    _check_symmetric((low,) if high is None else (low, high), n)
    if canonical:
        flat, least = _rebased(low, high, n)
        f -= sigma * least
    elif high is None:  # a slot's low byte is its entry, read signed
        flat = array("b", low)
    else:  # signed high bytes: the high byte with its top bit flipped
        flat = _joined("h", low, high.translate(_FLIP))
    # s and a are decoded once each and shifted as ints: in the
    # canonical frame |f| reaches bound + 1, so x - f may pass a slot
    s, a = _vector(th.s, n), _vector(th.a, n)
    return QuiverData(flat, tuple([x - f for x in a]),
                      tuple([sigma * (x - f) for x in s]), th.framing + f,
                      "symmetric" if symmetric else "antisymmetric")


def framing_shift(th, frame):
    """Quiver data of a closed state in the output frame (an integer,
    "raw" or "canonical"; see _export): each unit of framing multiplies
    color j by (-q)^{-j} a^{-j} q^{j^2}.  The rule holds in the
    antisymmetric color convention only; q_invert takes the frame for
    symmetric output."""
    return _export(th, frame, symmetric=False)


def q_invert(th, frame):
    """Quiver data of a closed state in the output frame, passed from
    one-column to one-row colors in the same pass.  The switch negates
    q_vec and Q, then decrements every off-diagonal entry of Q to
    account for the asymmetry of the q-Pochhammer denominators: with f
    the shift to the frame, Q_il -> -(Q_il + f) - 1 + [i = l], q_i ->
    f - q_i, a_i -> a_i - f."""
    return _export(th, frame, symmetric=True)
