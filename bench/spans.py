"""Span tracer for the traced benchmark run.

Spans are recorded from outside the package: each public function is
replaced by a timing wrapper on the name *as bound in the module that
calls it* (`cli.knot_quiver`, `verify.expand_motivic`, ...), because
the package imports with `from .x import y` and patching only the
defining module would miss those calls.  Spans stay in memory and are
written out when the run ends.

A span is (name, start, end, parent, item, info): `parent` is the index
of the enclosing span or -1, `item` the request it belongs to, and
`info` a small dict of counts read off the call (vertex count, color,
order, ...).
"""

import json
from math import comb
from time import perf_counter

NAME, START, END, PARENT, ITEM, INFO = range(6)


class Tracer:
    """Records spans of a single-threaded run."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.item, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result
        return traced

    def install(self, bindings):
        """Wrap each (owner, attribute, span name, info) binding for the
        rest of the process's life."""
        for owner, attr, name, info in bindings:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), info))

    def take(self):
        """The spans recorded since the last call; indices in them are
        local to the returned list."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, groups):
    """One JSON line per span, tagged with the index of its group."""
    with open(path, "w") as fh:
        for g, spans in enumerate(groups):
            for span in spans:
                fh.write(json.dumps([g] + span) + "\n")


def _vertices(args, result):
    return {"n": result.n}


def _color(args, result):
    return {"j": args[1]}


def _expansion(args, result):
    n, order = args[0].n, args[1]
    # dimension vectors d with |d| = j, summed over j <= order
    return {"N": order,
            "dims": sum(comb(j + n - 1, n - 1) for j in range(order + 1))}


def _terms(args, result):
    return {"terms": len(result[0].terms)}


def bindings(cli, verify, qseries, tangles):
    """Every traced call site: (owner, attribute, span name, info)."""
    return [
        (cli, "main", "cli.main", None),
        (cli, "compute_payload", "cli.compute_payload", None),
        (tangles, "enumerate_rational_knots", "tangles.enumerate", None),
        (cli, "knot_quiver", "knotpipeline.knot_quiver", _vertices),
        (verify, "knot_quiver", "knotpipeline.knot_quiver", _vertices),
        (cli, "delta_vector", "knotpipeline.gradings", None),
        (cli, "signature", "knotpipeline.gradings", None),
        (cli, "homology_generators", "knotpipeline.gradings", None),
        (cli, "link_quiver", "quiverstate.link_quiver", _vertices),
        (verify, "link_quiver", "quiverstate.link_quiver", _vertices),
        (cli, "framing_shift", "quiverstate.export", None),
        (cli, "q_invert", "quiverstate.export", None),
        (cli, "oracle_homfly", "skein.oracle", _color),
        (verify, "oracle_homfly", "skein.oracle", _color),
        (qseries.QFraction, "normalized_pair", "qseries.normalize", _terms),
        (cli, "verify_knot", "verify.check", None),
        (cli, "verify_link", "verify.check", None),
        (verify, "expand_motivic", "verify.expand", _expansion),
    ]


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [s[END] - s[START] - union_length(kids)
            for s, kids in zip(spans, children)]


def layer_metrics(spans):
    """Per-layer times (s) and counts over a list of spans whose parent
    indices point into the same list."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def covered(name, keep=lambda info: True):
        return union_length([(s[START], s[END])
                             for s in by_name.get(name, ())
                             if keep(s[INFO])])

    def count(name, key):
        return sum(s[INFO][key] for s in by_name.get(name, ()))

    selfs = self_times(spans)

    def self_sum(name):
        return sum(t for s, t in zip(spans, selfs) if s[NAME] == name)

    expand_s = covered("verify.expand")
    dims = count("verify.expand", "dims")
    out = {
        "tangles.enumerate_s": covered("tangles.enumerate"),
        "knotpipeline.knot_quiver_s": covered("knotpipeline.knot_quiver"),
        "knotpipeline.gradings_s": covered("knotpipeline.gradings"),
        "knotpipeline.vertices": count("knotpipeline.knot_quiver", "n"),
        "quiverstate.link_quiver_s": covered("quiverstate.link_quiver"),
        "quiverstate.export_s": covered("quiverstate.export"),
        "quiverstate.vertices": count("quiverstate.link_quiver", "n"),
        "cli.payload_self_s": self_sum("cli.compute_payload"),
        "cli.request_self_s": self_sum("cli.main"),
        "skein.oracle_s": covered("skein.oracle"),
        "skein.oracle_calls": len(by_name.get("skein.oracle", ())),
        "qseries.normalize_s": covered("qseries.normalize"),
        "qseries.normalize_calls": len(by_name.get("qseries.normalize", ())),
        "qseries.terms_out": count("qseries.normalize", "terms"),
        "verify.expand_s": expand_s,
        "verify.dim_vectors": dims,
        "verify.dim_vectors_per_s": dims / expand_s if expand_s else 0.0,
        "verify.check_self_s": self_sum("verify.check"),
    }
    for j in range(4):
        out[f"skein.oracle_j{j}_s"] = covered(
            "skein.oracle", lambda info, j=j: info["j"] == j)
    for order in (2, 3):
        out[f"verify.expand_N{order}_s"] = covered(
            "verify.expand", lambda info, order=order: info["N"] == order)
    return out
