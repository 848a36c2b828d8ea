"""One benchmark process.  `run.py` starts a fresh one per measurement:

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS T0

MODE is `setup` (import the package, build the requests, report the
set-up time and exit), `items` (then serve the requests to `cli.main`
one at a time, closed loop, in whole passes until SECONDS have gone),
`batch` (then time one `batch --jobs 2` pass over the corpus12 knots
instead), `trace` (`items` with span wrappers installed) or `record`
(one pass; prints the output digests to store).  T0 is the
parent's `time.monotonic()` just before it started this process, so
set-up time covers interpreter start, imports and input generation.
Prints one JSON object on stdout.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

from reference import at_reference_speed, reference_time
from workloads import BATCH_ARGV, BATCH_ITEMS, SIZES, requests

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")


def canonical(argv, stdout):
    """The part of a request's stdout that must be byte-identical.

    `verify` prints a wall-clock `timing` field on stdout (a known
    defect of the CLI), so it is dropped; every report must be ok."""
    if argv[0] != "verify":
        return stdout
    lines = []
    for line in stdout.splitlines():
        report = json.loads(line)
        if report.get("ok") is not True:
            raise ValueError(f"report not ok: {line}")
        report.pop("timing", None)
        lines.append(json.dumps(report))
    return "".join(line + "\n" for line in lines)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def short(full):
    return full[:16]


def workload_digest(full_digests):
    """Order-independent sha256 over the items' output digests."""
    return digest("\n".join(sorted(full_digests)))


def serve(main, argv):
    """Send one request; returns (seconds, exit code or None if it
    raised, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the request fails; the run goes on
            code = None
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def check(argv, code, stdout, expected):
    """(ok, full output digest) of one response against its stored
    short digest; expected=None skips the comparison."""
    if code != 0:
        return False, None
    try:
        full = digest(canonical(argv, stdout))
    except ValueError:
        return False, None
    return expected is None or short(full) == expected, full


def run_passes(main, argv_list, expected, seed, budget, tracer=None,
               after_pass=None):
    """Whole passes over the requests, each in a fresh seeded order,
    until `budget` seconds of serving have gone (at least one pass).

    With a tracer, spans are tagged with (pass, request index);
    `after_pass()` is called after each pass.  Returns a dict: `times`
    and `scaled` (wall and reference-speed seconds per request, one
    entry per pass), `failed` (request indices), `digests` (full output
    digest per request, first pass), `pass_totals` and `scaled_totals`
    (summed request time per pass) and `bytes_out` (stdout bytes of the
    first pass)."""
    rng = random.Random(seed)
    order = list(range(len(argv_list)))
    times = [[] for _ in argv_list]
    scaled = [[] for _ in argv_list]
    failed, digests, bytes_out = set(), {}, 0
    pass_totals, scaled_totals = [], []
    start = time.perf_counter()
    before = reference_time()
    while True:
        rng.shuffle(order)
        total = scaled_total = 0.0
        for i in order:
            if tracer is not None:
                tracer.item = (len(pass_totals), i)
            elapsed, code, stdout = serve(main, argv_list[i])
            after = reference_time()
            times[i].append(elapsed)
            scaled[i].append(at_reference_speed(elapsed, before, after))
            before = after
            total += elapsed
            scaled_total += scaled[i][-1]
            if not pass_totals:
                bytes_out += len(stdout.encode())
            ok, full = check(argv_list[i], code, stdout,
                             expected[i] if expected else None)
            if not ok:
                failed.add(i)
            if full is not None:
                digests.setdefault(i, full)
        pass_totals.append(total)
        scaled_totals.append(scaled_total)
        if after_pass is not None:
            after_pass()
        if time.perf_counter() - start >= budget:
            return {"times": times, "scaled": scaled,
                    "failed": sorted(failed), "digests": digests,
                    "pass_totals": pass_totals,
                    "scaled_totals": scaled_totals, "bytes_out": bytes_out}


def batch_pass(main, corpus_digests):
    """One `batch --jobs 2` pass: its wall seconds and whether it was
    ok.  Its lines must be exactly the stored outputs of the corpus12
    `compute` requests, in any order."""
    elapsed, code, stdout = serve(main, BATCH_ARGV)
    lines = stdout.splitlines(keepends=True)
    ok = (code == 0 and len(lines) == BATCH_ITEMS
          and sorted(short(digest(line)) for line in lines)
          == sorted(corpus_digests))
    return {"batch_s": elapsed, "batch_ok": ok}


def cache_counts(qseries):
    return {name: getattr(qseries, name).cache_info()
            for name in ("qbinom_plus", "poch_q2")}


def main():
    mode, workload, seed, seconds, t0 = sys.argv[1:6]
    seed, seconds, t0 = int(seed), float(seconds), float(t0)

    tracer = None
    from quivertangle import cli, qseries, tangles, verify
    if mode == "trace":
        from spans import Tracer, bindings, layer_metrics, write_spans
        tracer = Tracer()
        tracer.install(bindings(cli, verify, qseries, tangles))
    argv_list = requests(workload, tangles.enumerate_rational_knots)
    setup_s = time.monotonic() - t0
    if len(argv_list) != SIZES[workload]:
        raise SystemExit(f"{workload}: {len(argv_list)} requests, "
                         f"expected {SIZES[workload]}")
    result = {"setup_s": setup_s, "items": len(argv_list)}
    if mode == "setup":
        print(json.dumps(result))
        return

    keys = [" ".join(argv) for argv in argv_list]
    if mode == "record":
        served = run_passes(cli.main, argv_list, None, seed, 0.0)
        result.update(failed=served["failed"], digest=workload_digest(
            served["digests"].values()), outputs={
            keys[i]: short(full)
            for i, full in sorted(served["digests"].items())})
        print(json.dumps(result))
        return

    with open(EXPECTED) as fh:
        stored = json.load(fh)
    if mode == "batch":
        result.update(batch_pass(
            cli.main, list(stored["corpus12"]["outputs"].values())))
        print(json.dumps(result))
        return
    expected = [stored[workload]["outputs"].get(key) for key in keys]

    after_pass, pass_spans, caches = None, [], []
    if tracer is not None:
        enumerate_spans = tracer.take()
        caches.append(cache_counts(qseries))

        def after_pass():
            pass_spans.append(tracer.take())
            if len(caches) == 1:  # cache use of the first (cold) pass
                caches.append(cache_counts(qseries))

    served = run_passes(cli.main, argv_list, expected, seed, seconds,
                        tracer, after_pass)
    digests = served.pop("digests")
    result.update(served, digest_ok=(workload_digest(digests.values())
                                     == stored[workload]["digest"]))

    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    if tracer is not None:
        result["layers"] = [layer_metrics(spans) for spans in pass_spans]
        result["enumerate_s"] = layer_metrics(
            enumerate_spans)["tangles.enumerate_s"]
        result["caches"] = {
            name: {"hits": caches[1][name].hits - before.hits,
                   "misses": caches[1][name].misses - before.misses}
            for name, before in caches[0].items()}
        out_dir = os.path.join(os.path.dirname(HERE), ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        write_spans(os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl"),
                    [enumerate_spans] + pass_spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
