"""Exact cross-validation of quiver presentations against the skein
oracle: expand the motivic generating series of the exported quiver
data to a fixed order and compare each color's coefficient, as an exact
polynomial identity, with the independently computed reduced colored
HOMFLY-PT polynomial.
"""

from __future__ import annotations

import json
from math import comb
from typing import NamedTuple

from .knotpipeline import KNOT_ROUTE, knot_quiver
from .qseries import QFraction, poch_q2
from .quiverstate import (LINK_ROUTE, framing_shift, link_quiver, route_size,
                          state_expand)
from .skein import oracle_homfly
from .tangles import refuse_over

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
    unflagged index per vertex (q_vec, a_vec) and quadratic form Q,
    read at k = 0; it reads Q as export's flat buffer (qd.flat).

    Its cost is binom(N + n, n) dimension vectors, about n^N / N! for
    large n: order 4 on the 89 vertices of 89/34 visits 2.9 million.
    Most of them (|d| = N) are leaves, which the walk sums in its flat
    leaf loop.  An expansion of more than MAX_DIM_VECTORS dimension
    vectors raises ValueError before it starts.
    """
    refuse_expansion(qd.n, N)
    records = [(False, 0, s, a) for s, a in zip(qd.q_vec, qd.a_vec)]
    return [QFraction(c[0], poch_q2(j))
            for j, c in enumerate(state_expand(records, qd.flat, N))]


def refuse_expansion(n, N):
    """Refuse an expansion to order N on n vertices of more than
    MAX_DIM_VECTORS dimension vectors, naming the count and the bound."""
    refuse_over(f"expansion to order {N} on {n} vertices: dimension vectors",
                comb(n + N, N), MAX_DIM_VECTORS)


class VerificationReport(NamedTuple):
    """Outcome of one exact pipeline-vs-oracle comparison."""
    slope: str
    pipeline: str  # knot | link
    order_checked: int
    matches: list  # exact-equality boolean per color 0..order_checked
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


def _compare(coeffs, oracle):
    """Exact per-color comparison with the oracle's values from color
    0, of which there must be at least one per coefficient; records the
    first differing color and the cleared polynomial difference on
    mismatch."""
    matches, first, diff = [], None, None
    for j, (got, want) in enumerate(zip(coeffs, oracle[:len(coeffs)],
                                        strict=True)):
        ok = got == want
        matches.append(ok)
        if not ok and first is None:
            first = j
            diff = str(got - want)
    return matches, first, diff


def verify_knot(s, N=DEFAULT_KNOT_ORDER, oracle=None):
    """Check the p-vertex (knot-route) presentation of a rational knot
    (slope, CF terms or Plan) against the skein oracle: the coefficient
    of x^j, multiplied by (q^2;q^2)_j, must equal the reduced j-colored
    invariant exactly for every j <= N, both sides in the zero frame."""
    plan = route_size(s, KNOT_ROUTE)
    return check_state(knot_quiver(plan), plan, N, oracle)


def verify_link(s, N=DEFAULT_LINK_ORDER, oracle=None):
    """Check the one-crossing-at-a-time (link-route) presentation of any
    rational link (slope, CF terms or Plan): the coefficient of x^j
    must equal the reduced j-colored invariant directly (no per-color
    clearing) for every j <= N, both sides in the zero frame."""
    plan = route_size(s, LINK_ROUTE)
    return check_state(link_quiver(plan), plan, N, oracle)


def check_state(state, plan, N, oracle=None):
    """The check both routes share, on the closed state built by the
    plan's route: its quiver data in the zero frame, expanded to order
    N, against the oracle of plan.slope.  The knot route's color j is
    cleared by (q^2;q^2)_j before the comparison (its data presents
    the numerator polynomials: Route.polynomial), the link route's is
    not.

    oracle is a list of the oracle's values of the slope from color 0,
    those known so far; the colors up to N it lacks are evaluated in
    one call and appended to it, so the checks of several routes of a
    slope that share one list evaluate each color once.  None starts
    an empty list."""
    coeffs = expand_motivic(framing_shift(state, 0), N)
    if plan.route.polynomial:
        coeffs = [c * poch_q2(j) for j, c in enumerate(coeffs)]
    if oracle is None:
        oracle = []
    if len(oracle) <= N:
        oracle += oracle_homfly(plan.slope, list(range(len(oracle), N + 1)))
    matches, first, diff = _compare(coeffs, oracle)
    return VerificationReport(str(plan.slope), plan.route.name, N, matches,
                              first, diff)
