"""Exact cross-validation of quiver presentations against the skein
oracle: expand the motivic generating series of the exported quiver
data to a fixed order and compare each color's coefficient, as an exact
polynomial identity, with the independently computed reduced colored
HOMFLY-PT polynomial.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import comb

from .knotpipeline import knot_quiver
from .qseries import QFraction, poch_q2
from .quiverstate import (IndexRecord, QuiverState, framing_shift,
                          link_quiver, state_expand)
from .skein import oracle_homfly
from .tangles import UP, Slope, cf_value, is_knot

DEFAULT_KNOT_ORDER = 3
DEFAULT_LINK_ORDER = 2
# the most dimension vectors expand_motivic walks; a larger expansion,
# whose cost grows as n^N / N!, is refused before the walk starts
MAX_DIM_VECTORS = 10 ** 7


def expand_motivic(qd, N):
    """Truncated motivic generating series of quiver data, to order N.

    The Euler-form definition of the series weights a dimension vector
    d by

        (-q)^{-<d,d>} * prod_i prod_{k=1}^{d_i} 1/(1 - q^{-2k})
                      * prod_i ((-1)^{Q_ii + q_i} q^{q_i - 1} a^{a_i})^{d_i}

    with <d,e> = sum_i d_i e_i - d.Q.e.  Clearing each inverse-power
    denominator via 1/(1 - q^{-2k}) = -q^{2k}/(1 - q^{2k}) turns the
    denominator product for index i into
    (-1)^{d_i} q^{d_i(d_i+1)} / (q^2;q^2)_{d_i}; collecting all signs
    and q-powers (the parities of d.Q.d + sum d_i^2 + sum Q_ii d_i +
    sum d_i cancel) leaves exactly

        sum_{|d| = j} (-q)^{q_vec.d} q^{d.Q.d} a^{a_vec.d} [j; d]_+
        / (q^2;q^2)_j

    as the coefficient of x^j, where [j; d]_+ is the positive
    q-multinomial (the per-index Pochhammers gathered over a single
    (q^2;q^2)_j).  This is the form computed here; coefficients are
    exact QFractions, returned as the list of the N+1 coefficients.
    The expansion is state_expand's, on the state with one inactive,
    unflagged index per vertex (q_vec, a_vec) and quadratic form Q, read
    at k = 0.

    Its cost is binom(N + n, n) dimension vectors, about n^N / N! for
    large n: order 4 on the 89 vertices of 89/34 visits 2.9 million.
    Most of them (|d| = N) are leaves, which the walk sums in its flat
    leaf loop.  An expansion of more than MAX_DIM_VECTORS dimension
    vectors raises ValueError before it starts.
    """
    count = comb(qd.n + N, N)
    if count > MAX_DIM_VECTORS:
        raise ValueError(
            f"expansion to order {N} on {qd.n} vertices would visit "
            f"{count} dimension vectors, more than the bound "
            f"{MAX_DIM_VECTORS}")
    st = QuiverState(UP, tuple(IndexRecord(False, 0, s, a)
                               for s, a in zip(qd.q_vec, qd.a_vec)), qd.Q)
    return [QFraction(e.coeffs[0], poch_q2(j))
            for j, e in enumerate(state_expand(st, N))]


@dataclass
class VerificationReport:
    """Outcome of one exact pipeline-vs-oracle comparison."""
    slope: str
    pipeline: str  # knot | link
    order_checked: int
    matches: list  # exact-equality boolean per color 0..order_checked
    timing: float  # seconds, reported on stderr only
    first_mismatch: int | None = None
    difference: str | None = None

    @property
    def ok(self):
        return all(self.matches)

    def as_dict(self):
        out = {
            "slope": self.slope,
            "pipeline": self.pipeline,
            "order_checked": self.order_checked,
            "matches": list(self.matches),
            "ok": self.ok,
        }
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch
            out["difference"] = self.difference
        return out

    def to_json(self):
        return json.dumps(self.as_dict())


def _compare(coeffs, oracle_coeff):
    """Exact per-color comparison; records the first differing color
    and the cleared polynomial difference on mismatch."""
    matches, first, diff = [], None, None
    for j, got in enumerate(coeffs):
        want = oracle_coeff(j)
        ok = got == want
        matches.append(ok)
        if not ok and first is None:
            first = j
            delta = got - want
            diff = str(delta.normalized())
    return matches, first, diff


def verify_knot(s, N=DEFAULT_KNOT_ORDER):
    """Check the p-vertex (knot-route) presentation of a rational knot
    against the skein oracle: the coefficient of x^j, multiplied by
    (q^2;q^2)_j, must equal the reduced j-colored invariant exactly for
    every j <= N.  Both sides are taken in the zero frame."""
    s = _as_slope(s)
    if not is_knot(s):
        raise ValueError(f"{s} is a two-component link; use verify_link")
    return _verify(s, N, "knot")


def verify_link(s, N=DEFAULT_LINK_ORDER):
    """Check the one-crossing-at-a-time (link-route) presentation of any
    rational link: the coefficient of x^j must equal the reduced
    j-colored invariant directly (no per-color clearing) for every
    j <= N, both sides in the zero frame."""
    return _verify(_as_slope(s), N, "link")


def _verify(s, N, pipeline):
    """The check both routes share: the knot route's color j is cleared
    by (q^2;q^2)_j before the comparison, the link route's is not."""
    start = time.perf_counter()
    qd = knot_quiver(s) if pipeline == "knot" else link_quiver(s)
    coeffs = expand_motivic(framing_shift(qd, -qd.framing), N)
    if pipeline == "knot":
        coeffs = [c * poch_q2(j) for j, c in enumerate(coeffs)]
    matches, first, diff = _compare(coeffs, lambda j: oracle_homfly(s, j))
    elapsed = time.perf_counter() - start
    return VerificationReport(str(s), pipeline, N, matches, elapsed,
                              first, diff)


def _as_slope(s):
    return s if isinstance(s, Slope) else cf_value(s)
