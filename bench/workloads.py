"""The benchmark's four workloads: the CLI requests each one sends.

Every request is an argv list for `quivertangle` (`cli.main`).  The
program receives only these lists; the continued-fraction enumeration
and the even-p link list are generated here, and only `corpus12` takes
its slopes from the package's own corpus enumeration, because that
corpus is the paper's headline output.

Why each workload exists (the layer it stresses, and the layers it
bypasses so that a change to them should not move it):

- corpus12: the paper's headline output; time goes to the knot route
  (`knotpipeline`) and export/JSON.  `skein`, `verify` and the link
  route do not run.
- links50: the one-crossing-at-a-time link route (`quiverstate`) on
  2(p+q)-vertex quivers; `knotpipeline` does not run.
- verify7: the check the paper relies on; time goes to
  `verify.expand_motivic` and the small `qseries` products behind it.
- oracle8: the skein oracle (`skein`) and the gcd normalization of its
  output (`QFraction.normalized_pair`); no expansion kernel runs.
"""

from fractions import Fraction
from math import gcd

# request count of each workload at the commit that defined it; a
# different count means the generators below changed
SIZES = {"corpus12": 362, "links50": 263, "verify7": 107, "oracle8": 128}
WORKLOADS = tuple(SIZES)


def odd_cfs(max_sum):
    """All odd-length continued fractions of positive terms with term
    sum at most max_sum."""
    out = []

    def extend(prefix, left):
        if len(prefix) % 2 == 1:
            out.append(tuple(prefix))
        for t in range(1, left + 1):
            extend(prefix + [t], left - t)

    for first in range(1, max_sum + 1):
        extend([first], max_sum - first)
    return out


def cf_fraction(terms):
    """[a1,...,ar] evaluated right to left, ar + 1/(... + 1/a1), the
    package's convention."""
    value = Fraction(terms[0])
    for t in terms[1:]:
        value = t + 1 / value
    return value


def cf_slopes(max_sum):
    """(p, q) of every odd-length CF with term sum <= max_sum,
    deduplicated by value, sorted."""
    values = {cf_fraction(cf) for cf in odd_cfs(max_sum)}
    return sorted((v.numerator, v.denominator) for v in values)


def even_links(max_p):
    """Every two-component link slope p/q: even p <= max_p, 1 <= q < p,
    gcd(p, q) = 1."""
    return [(p, q) for p in range(2, max_p + 1, 2) for q in range(1, p)
            if gcd(p, q) == 1]


def requests(name, enumerate_knots):
    """The argv of every request of workload `name`, in canonical
    order.  `enumerate_knots` is the package's corpus enumeration,
    called only for corpus12."""
    if name == "corpus12":
        return [["compute", f"{s.p}/{s.q}"] for s in enumerate_knots(12)]
    if name == "links50":
        return [["compute", f"{p}/{q}"] for p, q in even_links(50)]
    if name == "verify7":
        slopes = cf_slopes(7)
        return ([["verify", "--pipeline", "knot", f"{p}/{q}"]
                 for p, q in slopes if p % 2 == 1]
                + [["verify", "--pipeline", "link", f"{p}/{q}"]
                   for p, q in slopes])
    if name == "oracle8":
        return [["oracle", f"{p}/{q}", "--colors", "0..3"]
                for p, q in cf_slopes(8)]
    raise ValueError(f"unknown workload {name!r}")


# The batch passes that give cli.batch_j2_items_per_s, in corpus12's
# traced run; they are checked against corpus12's stored outputs.
BATCH_ARGV = ["batch", "--max-crossings", "12", "--jobs", "2"]
BATCH_ITEMS = SIZES["corpus12"]
BATCH_PASSES = 5  # each in a fresh process; the median gives the rate
