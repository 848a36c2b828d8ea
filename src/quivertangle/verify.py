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

from .knotpipeline import knot_quiver
from .qseries import QFraction, TruncatedSeries, poch_q2, qmultinomial
from .quiverstate import compositions, framing_shift, link_quiver
from .skein import _mono, oracle_homfly
from .tangles import Slope, cf_value, is_knot

DEFAULT_KNOT_ORDER = 3
DEFAULT_LINK_ORDER = 2


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
    exact QFractions.  Enumeration cost is binom(N + n, n) dimension
    vectors, so keep N small (<= ~5) for large quivers.
    """
    n = qd.n
    numerators = [None] * (N + 1)
    for j in range(N + 1):
        acc = None
        for d in compositions(j, n):
            quad = sum(qd.Q[i][l] * d[i] * d[l]
                       for i in range(n) for l in range(n) if d[i] and d[l])
            sdot = sum(s * x for s, x in zip(qd.q_vec, d))
            adot = sum(a * x for a, x in zip(qd.a_vec, d))
            term = _mono(sdot, quad, adot) * qmultinomial(j, d)
            acc = term if acc is None else acc + term
        numerators[j] = acc
    return TruncatedSeries(N, [QFraction(num, poch_q2(j))
                               for j, num in enumerate(numerators)])


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


def _compare(series, oracle_coeff):
    """Exact per-color comparison; records the first differing color
    and the cleared polynomial difference on mismatch."""
    matches, first, diff = [], None, None
    for j in range(series.order + 1):
        got = series.coeffs[j]
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
    start = time.perf_counter()
    qd = knot_quiver(s)
    series = expand_motivic(framing_shift(qd, -qd.framing), N)
    cleared = TruncatedSeries(
        N, [c * poch_q2(j) for j, c in enumerate(series.coeffs)])
    matches, first, diff = _compare(cleared, lambda j: oracle_homfly(s, j))
    elapsed = time.perf_counter() - start
    return VerificationReport(str(s), "knot", N, matches, elapsed,
                              first, diff)


def verify_link(s, N=DEFAULT_LINK_ORDER):
    """Check the one-crossing-at-a-time (link-route) presentation of any
    rational link: the coefficient of x^j must equal the reduced
    j-colored invariant directly (no per-color clearing) for every
    j <= N, both sides in the zero frame."""
    s = _as_slope(s)
    start = time.perf_counter()
    qd = link_quiver(s)
    series = expand_motivic(framing_shift(qd, -qd.framing), N)
    matches, first, diff = _compare(series, lambda j: oracle_homfly(s, j))
    elapsed = time.perf_counter() - start
    return VerificationReport(str(s), "link", N, matches, elapsed,
                              first, diff)


def _as_slope(s):
    return s if isinstance(s, Slope) else cf_value(s)
