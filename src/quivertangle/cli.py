"""Command-line surface: compute quiver data, verify it against the
skein oracle, batch-process the enumerated knot corpus, list canonical
slopes, and print oracle polynomials.  All output is JSON (one object,
or one object per line for list-producing commands) and is
deterministic for identical configurations; timing summaries go to
stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time

from . import quiverstate
from .knotpipeline import (KNOT_ROUTE, delta_vector, homology_generators,
                           knot_quiver, signature)
from .quiverstate import (LINK_ROUTE, framing_shift, link_quiver, q_invert,
                          route_size)
from .skein import MAX_ORACLE_COLOR, MAX_ORACLE_TWISTS, oracle_homfly
from .tangles import (Slope, cf_expand, cf_value, crossing_number,
                      enumerate_rational_knots, is_knot, refuse_over)
from .verify import (DEFAULT_KNOT_ORDER, DEFAULT_LINK_ORDER, check_state,
                     refuse_expansion, verify_knot, verify_link)

# the largest --max-crossings budget of enumerate: it bounds the output,
# which about doubles per crossing (22,015 knots at 18), not the time,
# which is linear in the output; a larger budget is refused before any work
MAX_CROSSINGS = 18

# each route by the name --pipeline gives it, and its default --order
ROUTES = {route.name: route for route in (KNOT_ROUTE, LINK_ROUTE)}
DEFAULT_ORDER = {KNOT_ROUTE: DEFAULT_KNOT_ORDER,
                 LINK_ROUTE: DEFAULT_LINK_ORDER}


# each side of a slope: an optional minus and ASCII digits, none of the
# other literal forms int() takes (1_3, +13, spaces, other digits)
_SLOPE = re.compile(r"(-?[0-9]+)/(-?[0-9]+)")


def _parse_input(text):
    """(slope, CF terms) of the positional input: a slope p/q with
    p >= q, or an odd-length JSON list of positive integers."""
    if not text.lstrip().startswith("["):
        match = _SLOPE.fullmatch(text)
        if not match:
            raise argparse.ArgumentTypeError(
                f"bad slope {text!r}: expected p/q, two integers")
        p, q = map(int, match.groups())
        try:
            slope = Slope(p, q)
            return slope, cf_expand(slope)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad slope {text!r}: {exc}")
    try:
        terms = json.loads(text)
    except ValueError:
        terms = None
    # type() rather than isinstance: JSON true would pass as the int 1
    if not (isinstance(terms, list) and len(terms) % 2 == 1
            and all(type(t) is int and t >= 1 for t in terms)):
        raise argparse.ArgumentTypeError(
            f"bad continued fraction {text!r}: need an odd-length JSON "
            "list of positive integers, e.g. [1,2,4]")
    return cf_value(terms), terms


def _parse_colors(text):
    error = argparse.ArgumentTypeError(
        f"bad color range {text!r}: expected A..B")
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError:
        raise error from None
    if not 0 <= lo <= hi:
        raise error
    return lo, hi


def _bounded_int(low):
    """Argument type for an integer option of at least low; a bound
    above is refused by the command's handler, like every other."""
    def parse(text):
        error = argparse.ArgumentTypeError(
            f"bad value {text!r}: expected an integer >= {low}")
        try:
            value = int(text)
        except ValueError:
            raise error from None
        if value < low:
            raise error
        return value
    return parse


def _batch_crossings():
    """The largest budget whose every knot fits the knot route: a knot
    of c crossings has p <= F(c+1), the continuant of c ones, so this
    is the largest c <= MAX_CROSSINGS whose slope of c ones fits
    MAX_VERTICES (16 at 2048)."""
    return max(c for c in range(3, MAX_CROSSINGS + 1)
               if KNOT_ROUTE.vertices(cf_value([1] * c))
               <= quiverstate.MAX_VERTICES)


def _parse_frame(text):
    if text in ("canonical", "raw"):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad frame {text!r}: expected canonical, raw, or an integer")


def _fraction_obj(frac):
    """Canonical text form: a bare polynomial string when the reduced
    denominator is 1 (always the case for knots), else num/den parts."""
    num, den = frac.normalized_pair()
    if den.is_one():
        return str(num)
    return {"num": str(num), "den": str(den)}


def compute_payload(plan, terms, frame, convention):
    """The closed state the plan's route builds and the `compute` JSON
    object of the input terms, its quiver data in the output frame.  Its
    Q is the flat buffer export fills (QuiverData.flat), which
    _payload_line writes as the rows json.dumps would."""
    knot = plan.route is KNOT_ROUTE
    state = knot_quiver(plan) if knot else link_quiver(plan)
    payload = {
        "p": plan.slope.p,
        "q": plan.slope.q,
        "cf": terms,
        "pipeline": plan.route.name,
    }
    if knot:
        # the homology trigrading is read off the closure-frame state
        # (the frame knot_quiver builds), where 2t - 2a - q equals the
        # signature; per generator it is the framing-invariant delta
        generators = homology_generators(state)
        payload["delta"] = delta_vector(generators)
        payload["signature"] = signature(plan)
        payload["homology"] = generators
    out = (q_invert(state, frame) if convention == "sym"
           else framing_shift(state, frame))
    payload.update({
        "convention": out.color_convention,
        "framing": out.framing,
        "vertices": out.n,
        "Q": out.flat,
        "a_vec": list(out.a_vec),
        "q_vec": list(out.q_vec),
    })
    return state, payload


# Q's text when it is a byte array ('b' or 'B'): the text of each entry,
# right-aligned in 4 characters padded with _GAP, as 4 character columns
# keyed by the byte that holds the entry, each applied by one
# bytes.translate
_GAP = b"\0"  # a byte no text holds


def _columns(values):
    """Column k < 4 of the texts of values: one byte of each, in order."""
    texts = b"".join(str(v).encode().rjust(4, _GAP) for v in values)
    return [texts[k::4] for k in range(4)]


def _byte_table(values, widths):
    """(keys, columns, widths) of a byte array holding values, listed in
    increasing order: the byte of each value in that order, and the
    columns keyed by the byte."""
    return (bytes(v % 256 for v in values),
            _columns(sorted(values, key=lambda v: v % 256)), widths)


# by typecode; widths are (width, least, most entry), the widest last:
# entries in [-9, 99] need only the last 2 columns
_BYTE_TABLES = {"b": _byte_table(range(-128, 128),
                                 ((2, -9, 99), (4, -128, 127))),
                "B": _byte_table(range(256), ((2, 0, 99), (3, 0, 255)))}


def _byte_text(flat, n, entries):
    """The JSON text of the rows of the n x n matrix in the byte array
    flat, without the outer brackets, written by C-level byte
    operations from its bytes as they are, read by its typecode's
    signedness; KeyError unless every entry lies in entries (lo, hi).
    Each entry takes width + 2 bytes of one buffer: its columns and the
    separator ", ", or at a row end a marker and _GAP.  One translate
    deletes the gaps and one replace turns the markers into "], [";
    each buffer is dropped once the next is built."""
    lo, hi = entries
    keys, columns, widths = _BYTE_TABLES[flat.typecode]
    data, first = flat.tobytes(), widths[-1][1]  # keys[v - first] holds v
    for width, least, most in widths:
        # delete the entries of this width in range, by their bytes:
        # none may be left
        if not data.translate(None, keys[max(lo, least) - first:
                                         min(hi, most) - first + 1]):
            break
    else:
        raise KeyError(f"an entry of Q lies outside [{lo}, {hi}]")
    step = width + 2
    out = bytearray(_GAP * width + b", ") * (n * n)
    for k, column in enumerate(columns[-width:]):
        out[k::step] = data.translate(column)
    del data
    out[step * n - 2::step * n] = b"|" * n
    out[step * n - 1::step * n] = _GAP * n
    out[-2:] = _GAP * 2
    text = out.translate(None, _GAP)
    del out
    text = text.replace(b"|", b"], [")
    return text.decode("ascii")


# Q's text when it is a 16-bit array: the JSON text of each entry, keyed
# by its value, built once per process and grown to each range export
# proves for such a request, so a value outside every such range raises
# KeyError instead of printing
_DIGITS = {}


def _q_text(flat, n, entries):
    """The JSON text of the rows of the n x n matrix in the flat array,
    without the outer brackets, whose every entry export proves to lie
    in entries (lo, hi): a byte array by _byte_text, a 16-bit one
    through _DIGITS, one ", ".join per row and one "], [".join of the
    rows.  Every range asked for holds 0, so the table always covers
    one interval."""
    if flat.itemsize == 1:
        return _byte_text(flat, n, entries)
    lo, hi = entries
    if lo not in _DIGITS or hi not in _DIGITS:
        _DIGITS.update((v, str(v)) for v in range(lo, hi + 1))
    return "], [".join(", ".join(map(_DIGITS.__getitem__, flat[i:i + n]))
                       for i in range(0, n * n, n))


def _payload_line(payload, entries):
    """json.dumps(payload) and a newline, with Q, the flat buffer, as
    its rows: its text written by _q_text, the other fields by
    json.dumps.  entries is (lo, hi), export's proven range of Q's
    entries.  Q is taken out of the payload and dropped before the
    final join, so the buffer and the whole text are never held
    together."""
    keys = list(payload)
    at = keys.index("Q")
    Q = payload.pop("Q")
    text = _q_text(Q, payload["vertices"], entries)
    del Q
    head = json.dumps({k: payload[k] for k in keys[:at]})
    tail = json.dumps({k: payload[k] for k in keys[at + 1:]})
    return "".join((head[:-1], ', "Q": [[', text, "]], ", tail[1:], "\n"))


def _compute_line(plan, terms, frame, convention):
    """The closed state and the output line of one `compute`; a frame
    export cannot decode is refused from the plan, before the route."""
    entries = quiverstate.export_range(plan, frame, convention == "sym")
    state, payload = compute_payload(plan, terms, frame, convention)
    return state, _payload_line(payload, entries)


def _routes(args):
    """The routes of a compute or verify request: the one --pipeline
    names, else both for a knot and the link route for a link."""
    if args.pipeline:
        return [ROUTES[args.pipeline]]
    return [KNOT_ROUTE, LINK_ROUTE] if is_knot(args.input[0]) else [LINK_ROUTE]


def _out_error(out_path, code):
    """The refusal of an --out path, naming it and the OS error code it
    met."""
    return ValueError(f"cannot write --out {out_path}: {os.strerror(code)}")


def _check_out(out_path):
    """Refuse, before any work, an --out path open(path, "w") would fail
    on, without creating or truncating it: a directory, a read-only
    file, or a new file in a missing or read-only directory."""
    folder = os.path.join(os.path.dirname(out_path) or ".", "")
    try:
        os.stat(folder)  # the trailing separator makes a file ENOTDIR
    except OSError as exc:
        raise _out_error(out_path, exc.errno) from None
    if os.path.isdir(out_path):
        raise _out_error(out_path, errno.EISDIR)
    # writing an existing file needs its own permission, not its folder's
    if not os.access(out_path if os.path.exists(out_path) else folder,
                     os.W_OK):
        raise _out_error(out_path, errno.EACCES)


def _out_io(out_path, call, *args):
    """call(*args), an open, write or flush of the --out path: one that
    fails after _check_out is still a usage error."""
    try:
        return call(*args)
    except OSError as exc:
        raise _out_error(out_path, exc.errno) from None


def _emit(lines, out_path):
    """Write each of the lines as it arrives, to the --out path or to
    stdout without one, and return how many were written: on stdout,
    those handed to it before its reader left, which stops the writing
    quietly.  Only the open and the writes of the --out path are a usage
    error when they fail, never the work that makes the lines; a run
    that fails midway leaves the lines written so far."""
    written = 0
    if not out_path:
        try:
            for line in lines:
                sys.stdout.write(line)
                written += 1
            sys.stdout.flush()
        except BrokenPipeError:
            # as the Python signal docs advise: stdout now writes to
            # devnull, so the flush at exit cannot raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return written
    with _out_io(out_path, open, out_path, "w") as fh:
        for line in lines:
            _out_io(out_path, fh.write, line)
            written += 1
        _out_io(out_path, fh.flush)
    return written


def _checks(args, routes, defaults):
    """(plan, order) of each route of a compute or verify request: the
    order of its check is --order, else the route's in defaults, else 0
    (no check).  Every bound is refused here, before any route runs: an
    order over the oracle's color bound, a quiver over MAX_VERTICES
    (route_size) and an expansion over MAX_DIM_VECTORS."""
    refuse_over("order", args.order, MAX_ORACLE_COLOR)
    checks = []
    for route in routes:
        plan = route_size(args.input[0], route)
        order = args.order or defaults.get(route, 0)
        if order:
            refuse_expansion(plan.n, order)
        checks.append((plan, order))
    return checks


def _cmd_compute(args):
    [(plan, order)] = _checks(args, _routes(args)[:1], {})
    state, line = _compute_line(plan, args.input[1], args.frame,
                                args.convention)
    if order:
        report = check_state(state, plan, order)
        if not report.ok:
            sys.stderr.write(report.to_json() + "\n")
            return 1
        # json.dumps would write this key last: splice it in before the
        # closing brace
        line = (line[:-2] + ", "
                + json.dumps({"verified_order": order})[1:] + "\n")
    _emit([line], args.out)
    return 0


def _cmd_oracle(args):
    slope, terms = args.input
    lo, hi = args.colors
    refuse_over("color", hi, MAX_ORACLE_COLOR)
    refuse_over("twist count (CF term sum)", sum(terms), MAX_ORACLE_TWISTS)
    values = oracle_homfly(slope, list(range(lo, hi + 1)))
    colors = {}
    for j, value in enumerate(values, lo):
        if args.jones:
            value = value.subs_a_q2()
        colors[str(j)] = _fraction_obj(value)
    payload = {"p": slope.p, "q": slope.q, "cf": terms, "frame": "zero",
               "jones": bool(args.jones), "colors": colors}
    _emit([json.dumps(payload) + "\n"], args.out)
    return 0


def _cmd_verify(args):
    checks = _checks(args, _routes(args), DEFAULT_ORDER)
    # the checks share the oracle's values: each color is evaluated once
    oracle, reports, summary = [], [], []
    for plan, order in checks:
        start = time.perf_counter()
        reports.append((verify_knot if plan.route is KNOT_ROUTE
                        else verify_link)(plan, order, oracle))
        summary.append(f"{plan.route.name} route to order {order} in "
                       f"{time.perf_counter() - start:.2f}s")
    _emit((r.to_json() + "\n" for r in reports), args.out)
    sys.stderr.write("verify: " + ", ".join(summary) + "\n")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_enumerate(args):
    refuse_over("crossing budget", args.max_crossings, MAX_CROSSINGS)
    _emit((json.dumps({"slope": str(s), "crossings": crossing_number(s)})
           + "\n" for s in enumerate_rational_knots(args.max_crossings)),
          args.out)
    return 0


def _batch_worker(task):
    p, q, frame, convention = task
    slope = Slope(p, q)
    return _compute_line(route_size(slope, KNOT_ROUTE), cf_expand(slope),
                         frame, convention)[1]


def _cmd_batch(args):
    refuse_over("crossing budget", args.max_crossings, _batch_crossings())
    slopes = enumerate_rational_knots(args.max_crossings)
    tasks = [(s.p, s.q, args.frame, args.convention) for s in slopes]
    # the pool starts all its workers at the first submit, so a worker
    # count beyond the CPUs or the tasks would only cost processes
    cpus = os.cpu_count() or 1
    jobs = min(args.jobs or cpus, cpus, len(tasks))
    start = time.perf_counter()
    if jobs > 1:
        # imported here: only batch needs the pool, and every other
        # command would pay for its import at start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # each line is written as the pool returns it, in order; once
            # the reader has gone, the tasks not started are dropped
            written = _emit(pool.map(_batch_worker, tasks, chunksize=8),
                            args.out)
            if written < len(tasks):
                pool.shutdown(cancel_futures=True)
    else:
        written = _emit(map(_batch_worker, tasks), args.out)
    elapsed = time.perf_counter() - start
    sys.stderr.write(
        f"batch: {written} knots in {elapsed:.2f}s "
        f"({jobs} worker{'s' if jobs != 1 else ''})\n")
    return 0


_INPUT_HELP = "slope p/q with p >= q, or continued fraction [a1,...,ar]"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivertangle",
        description="Quiver presentations of colored HOMFLY-PT "
                    "invariants of rational links")
    subs = parser.add_subparsers(dest="command", required=True)
    order = _bounded_int(0)

    compute = subs.add_parser("compute", help="emit quiver data as JSON")
    compute.add_argument("input", type=_parse_input, help=_INPUT_HELP)
    compute.add_argument("--pipeline", choices=ROUTES, default=None)
    compute.add_argument("--frame", type=_parse_frame, default="canonical")
    compute.add_argument("--convention", choices=("anti", "sym"),
                         default="sym")
    compute.add_argument("--order", type=order, default=0,
                         help="also verify against the oracle to this order")

    oracle = subs.add_parser("oracle",
                             help="print reduced colored polynomials")
    oracle.add_argument("input", type=_parse_input, help=_INPUT_HELP)
    oracle.add_argument("--colors", type=_parse_colors, default=(0, 3))
    oracle.add_argument("--jones", action="store_true",
                        help="specialize a = q^2: the Jones polynomial, "
                        "in t = q^2, at color 1 only")

    verify = subs.add_parser("verify",
                             help="cross-check quiver data vs the oracle")
    verify.add_argument("input", type=_parse_input, help=_INPUT_HELP)
    verify.add_argument("--pipeline", choices=ROUTES, default=None)
    verify.add_argument("--order", type=order, default=0,
                        help="0 = per-pipeline default")

    enum = subs.add_parser("enumerate",
                           help="list canonical rational knots (JSONL)")
    enum.add_argument("--max-crossings", default=12, type=_bounded_int(3))

    batch = subs.add_parser("batch",
                            help="compute quiver data for the whole corpus")
    batch.add_argument("--max-crossings", default=12, type=_bounded_int(3))
    batch.add_argument("--frame", type=_parse_frame, default="canonical")
    batch.add_argument("--convention", choices=("anti", "sym"),
                       default="sym")
    batch.add_argument("--jobs", type=_bounded_int(0), default=0,
                       help="worker processes (0 = CPU count, the default; "
                            "at most the CPU count)")

    # each command's handler gets its own subparser, so main prints the
    # usage line of the command whose refusal it reports
    for sub, handler in ((compute, _cmd_compute), (oracle, _cmd_oracle),
                         (verify, _cmd_verify), (enum, _cmd_enumerate),
                         (batch, _cmd_batch)):
        sub.add_argument("--out", default=None)
        sub.set_defaults(handler=handler, parser=sub)
    return parser


# built once per process: every main() call parses with this parser
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    # every refusal after parsing is a ValueError, and leaves here
    try:
        if args.out:
            _check_out(args.out)
        return args.handler(args)
    except ValueError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
