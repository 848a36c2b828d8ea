"""The benchmark's speed reference: a fixed pure-Python loop.

The 2-vCPU box the benchmark was defined on (Python 3.11) changes speed
by up to 1.9x, in phases of seconds to minutes, as other tenants load
its host; the same request then takes up to 1.9x as long.  So every
timed interval t is also reported at the reference speed,

    t * REFERENCE_S / r,

where r is the time of this loop measured just before and just after
the interval (their mean).  The loop does the kind of work the package
does, products of sparse polynomials held as dicts keyed by exponent
tuples, so it slows down with the host as the requests do.  It shares
no code with the package, so a change to the package cannot move it.
Changing the loop or REFERENCE_S changes every reported time.
"""

from time import perf_counter

# the loop's time on the defining box in its fast phases (5th
# percentile of about 6,000 samples taken between requests)
REFERENCE_S = 0.238e-3


class _Term:
    __slots__ = ("exps", "coeff")

    def __init__(self, exps, coeff):
        self.exps = exps
        self.coeff = coeff


_TERMS = [_Term((i, i % 3), i + 1) for i in range(10)]


def _square():
    out = {}
    for x in _TERMS:
        for y in _TERMS:
            key = (x.exps[0] + y.exps[0], x.exps[1] + y.exps[1])
            out[key] = out.get(key, 0) + x.coeff * y.coeff
    return [_Term(key, c) for key, c in out.items() if c]


def reference_time():
    """Seconds the reference loop takes now."""
    start = perf_counter()
    for _ in range(10):
        _square()
    return perf_counter() - start


def at_reference_speed(seconds, before, after):
    """`seconds` measured between two reference_time() samples, scaled
    to the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
