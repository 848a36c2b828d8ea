"""Command-line surface: compute quiver data, verify it against the
skein oracle, batch-process the enumerated knot corpus, list canonical
slopes, and print oracle polynomials.  All output is JSON (one object,
or one object per line for list-producing commands) and is
deterministic for identical configurations; timing summaries go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .knotpipeline import (delta_vector, homology_generators, knot_quiver,
                           signature)
from .quiverstate import (canonical_shift, framing_shift, link_quiver,
                          q_invert)
from .skein import oracle_homfly
from .tangles import (Slope, cf_expand, cf_value, crossing_number,
                      enumerate_rational_knots, is_knot)
from .verify import (DEFAULT_KNOT_ORDER, DEFAULT_LINK_ORDER, verify_knot,
                     verify_link)


def _parse_slope(text):
    try:
        p, q = text.split("/")
        return Slope(int(p), int(q))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad slope {text!r}: {exc}")


def _parse_cf(text):
    try:
        terms = json.loads(text)
    except ValueError:
        terms = None
    if not (isinstance(terms, list) and len(terms) % 2 == 1
            and all(isinstance(t, int) and t >= 1 for t in terms)):
        raise argparse.ArgumentTypeError(
            f"bad continued fraction {text!r}: need an odd-length JSON "
            "list of positive integers, e.g. [1,2,4]")
    return terms


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


def _int_at_least(low):
    """Argument type for an integer option with a lower bound."""
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


def _parse_frame(text):
    if text in ("canonical", "raw"):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad frame {text!r}: expected canonical, raw, or an integer")


def _add_input_args(sub, positional=True):
    if positional:
        sub.add_argument("input", nargs="?", default=None,
                         help="slope p/q or continued fraction [a,...]")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--slope", type=_parse_slope, default=None)
    group.add_argument("--cf", type=_parse_cf, default=None)


def _resolve_input(args, parser):
    """Slope and CF terms from the (mutually exclusive) input forms."""
    given = [x for x in (getattr(args, "input", None), args.slope, args.cf)
             if x is not None]
    if len(given) != 1:
        parser.error("give exactly one of: positional input, --slope, --cf")
    value = given[0]
    if isinstance(value, str):
        try:
            value = (_parse_cf(value) if value.lstrip().startswith("[")
                     else _parse_slope(value))
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
    if isinstance(value, Slope):
        return value, cf_expand(value)
    return cf_value(value), list(value)


def _fraction_obj(frac):
    """Canonical text form: a bare polynomial string when the reduced
    denominator is 1 (always the case for knots), else num/den parts."""
    num, den = frac.normalized_pair()
    if den.is_one():
        return str(num)
    return {"num": str(num), "den": str(den)}


def _output_frame_shift(qd, frame, convention):
    """Framing shift turning raw-frame data into the requested frame.

    canonical: the minimum entry of the output-convention Q becomes 0.
    raw: no shift.  integer: that frame."""
    if frame == "raw":
        return 0
    if isinstance(frame, int):
        return frame - qd.framing
    return canonical_shift(qd, symmetric=convention == "sym")


def compute_payload(slope, terms, pipeline, frame, convention):
    """The `compute` JSON object for one link."""
    if pipeline == "knot":
        if not is_knot(slope):
            raise ValueError(
                f"{slope} is a two-component link; use --pipeline link")
        qd = knot_quiver(slope)
    else:
        qd = link_quiver(slope)
    payload = {
        "p": slope.p,
        "q": slope.q,
        "cf": terms,
        "pipeline": pipeline,
    }
    if pipeline == "knot":
        # delta is framing-invariant; the homology trigrading is read
        # off the closure-frame presentation (the frame knot_quiver
        # produces), where 2t - 2a - q equals the signature
        payload["delta"] = list(delta_vector(qd))
        payload["signature"] = signature(slope)
        payload["homology"] = [[g.a_degree, g.q_degree, g.t_degree]
                               for g in homology_generators(qd)]
    out = framing_shift(qd, _output_frame_shift(qd, frame, convention))
    if convention == "sym":
        out = q_invert(out)
    payload.update({
        "convention": out.color_convention,
        "framing": out.framing,
        "vertices": out.n,
        "Q": [list(row) for row in out.Q],
        "a_vec": list(out.a_vec),
        "q_vec": list(out.q_vec),
    })
    return payload


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_compute(args, parser):
    slope, terms = _resolve_input(args, parser)
    pipeline = args.pipeline or ("knot" if is_knot(slope) else "link")
    try:
        payload = compute_payload(slope, terms, pipeline,
                                  args.frame, args.convention)
    except ValueError as exc:
        parser.error(str(exc))
    if args.order:
        check = verify_knot if pipeline == "knot" else verify_link
        report = check(slope, args.order)
        if not report.ok:
            sys.stderr.write(report.to_json() + "\n")
            return 1
        payload["verified_order"] = args.order
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_oracle(args, parser):
    slope, terms = _resolve_input(args, parser)
    lo, hi = args.colors
    colors = {}
    for j in range(lo, hi + 1):
        value = oracle_homfly(slope, j)
        if args.jones:
            value = value.subs_a_q2()
        colors[str(j)] = _fraction_obj(value)
    payload = {"p": slope.p, "q": slope.q, "cf": terms, "frame": "zero",
               "jones": bool(args.jones), "colors": colors}
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_verify(args, parser):
    slope, _ = _resolve_input(args, parser)
    pipelines = (args.pipeline,) if args.pipeline else (
        ("knot", "link") if is_knot(slope) else ("link",))
    if "knot" in pipelines and not is_knot(slope):
        parser.error(f"{slope} is a two-component link; "
                     "the knot pipeline does not apply")
    reports = []
    for pipeline in pipelines:
        if pipeline == "knot":
            reports.append(verify_knot(slope, args.order
                                       or DEFAULT_KNOT_ORDER))
        else:
            reports.append(verify_link(slope, args.order
                                       or DEFAULT_LINK_ORDER))
    text = "".join(r.to_json() + "\n" for r in reports)
    _emit(text, args.out)
    sys.stderr.write("verify: " + ", ".join(
        f"{r.pipeline} route to order {r.order_checked} in {r.timing:.2f}s"
        for r in reports) + "\n")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_enumerate(args, parser):
    slopes = enumerate_rational_knots(args.max_crossings)
    lines = [json.dumps({"slope": str(s),
                         "crossings": crossing_number(s)}) + "\n"
             for s in slopes]
    _emit("".join(lines), args.out)
    return 0


def _batch_worker(task):
    p, q, frame, convention = task
    slope = Slope(p, q)
    return json.dumps(compute_payload(slope, cf_expand(slope), "knot",
                                      frame, convention))


def _cmd_batch(args, parser):
    slopes = enumerate_rational_knots(args.max_crossings)
    tasks = [(s.p, s.q, args.frame, args.convention) for s in slopes]
    jobs = args.jobs or os.cpu_count() or 1
    start = time.perf_counter()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_batch_worker, tasks, chunksize=8))
    else:
        results = [_batch_worker(t) for t in tasks]
    elapsed = time.perf_counter() - start
    _emit("".join(line + "\n" for line in results), args.out)
    sys.stderr.write(
        f"batch: {len(results)} knots in {elapsed:.2f}s "
        f"({jobs} worker{'s' if jobs != 1 else ''})\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivertangle",
        description="Quiver presentations of colored HOMFLY-PT "
                    "invariants of rational links")
    subs = parser.add_subparsers(dest="command", required=True)

    compute = subs.add_parser("compute", help="emit quiver data as JSON")
    _add_input_args(compute)
    compute.add_argument("--pipeline", choices=("knot", "link"), default=None)
    compute.add_argument("--frame", type=_parse_frame, default="canonical")
    compute.add_argument("--convention", choices=("anti", "sym"),
                         default="sym")
    compute.add_argument("--order", type=_int_at_least(0), default=0,
                         help="also verify against the oracle to this order")
    compute.add_argument("--out", default=None)

    oracle = subs.add_parser("oracle",
                             help="print reduced colored polynomials")
    _add_input_args(oracle)
    oracle.add_argument("--colors", type=_parse_colors, default=(0, 3))
    oracle.add_argument("--jones", action="store_true",
                        help="specialize a = q^2")
    oracle.add_argument("--out", default=None)

    verify = subs.add_parser("verify",
                             help="cross-check quiver data vs the oracle")
    _add_input_args(verify)
    verify.add_argument("--pipeline", choices=("knot", "link"), default=None)
    verify.add_argument("--order", type=_int_at_least(0), default=0,
                        help="0 = per-pipeline default")
    verify.add_argument("--out", default=None)

    enum = subs.add_parser("enumerate",
                           help="list canonical rational knots (JSONL)")
    enum.add_argument("--max-crossings", type=_int_at_least(3), default=12)
    enum.add_argument("--out", default=None)

    batch = subs.add_parser("batch",
                            help="compute quiver data for the whole corpus")
    batch.add_argument("--max-crossings", type=_int_at_least(3),
                       default=12)
    batch.add_argument("--frame", type=_parse_frame, default="canonical")
    batch.add_argument("--convention", choices=("anti", "sym"),
                       default="sym")
    batch.add_argument("--jobs", type=_int_at_least(0), default=0,
                       help="worker processes (0 = CPU count, the default)")
    batch.add_argument("--out", default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compute": _cmd_compute,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
        "enumerate": _cmd_enumerate,
        "batch": _cmd_batch,
    }[args.command]
    return handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
