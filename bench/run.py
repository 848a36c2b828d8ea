"""Benchmark of the `quivertangle` CLI, end to end and per layer.

    python3 bench/run.py --workload corpus12 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --record                # rewrite expected.json

Run from the repository root.  Each measurement is a fresh Python
process (`worker.py`) that imports the package from `src/` and sends
the workload's requests to `cli.main` as one client, each after the
previous one finished (closed loop).  The seed permutes the request
order.  Every response is checked against the digest stored in
`expected.json`.  Request times are reported at the reference speed
(see `reference.py`), because the box's own speed drifts.

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics of a traced run next to an untraced one, and the
tracing overhead.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; details (environment,
in-run spread of each metric) go to `.bench_out/`.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import BATCH_ITEMS, BATCH_PASSES, SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_PROBES = 16  # fresh processes timed for setup_s
TIME_LIMIT = 170.0  # seconds for one invocation, all processes included


def declared_metrics():
    """{name: unit} of the end-to-end and the per-layer metrics, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(Exception):
    """The benchmark could not measure (program missing or crashed)."""


def nearest_rank(values, pct):
    """The pct-th percentile by the nearest-rank rule: the value at
    1-based rank ceil(pct/100 * n) of the sorted values."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def spread(values):
    """Interquartile distance as a share of the median, or None for
    fewer than two values."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def environment():
    env = {"nproc": os.cpu_count(),
           "cpus_allowed": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "machine": platform.machine()}
    # CPU limits of the cgroup, read only: v2 first, then v1
    for key, path in (("cpu.max", "/sys/fs/cgroup/cpu.max"),
                      ("cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
                      ("cfs_period_us",
                       "/sys/fs/cgroup/cpu/cpu.cfs_period_us")):
        try:
            with open(path) as fh:
                env[key] = fh.read().strip()
        except OSError:
            pass
    return env


class Session:
    """Starts worker processes within one invocation's time limit."""

    def __init__(self):
        self.deadline = time.monotonic() + TIME_LIMIT
        # a fixed string hash seed keeps dict and set layouts, and so
        # timings, the same from one process to the next
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]]
                     if self.env.get("PYTHONPATH") else []))

    def worker(self, mode, workload, seed, seconds=0.0):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        t0 = time.monotonic()
        # own process group, so that a timeout also ends the batch pool
        with subprocess.Popen(
                [sys.executable, WORKER, mode, workload, str(seed),
                 str(seconds), repr(t0)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"{mode} {workload}: time limit reached")
        if proc.returncode != 0:
            raise BenchError(f"{mode} {workload} exited {proc.returncode}:\n"
                             + err[-2000:])
        return json.loads(out.splitlines()[-1])


def item_stats(times):
    """items_per_s, p50 and p90 (ms) of per-request times.  `times`
    holds one list per request (one entry per pass); each request
    counts with the median of its passes."""
    per_item = [statistics.median(t) for t in times]
    return {"items_per_s": len(per_item) / sum(per_item),
            "item_p50_ms": 1000 * nearest_rank(per_item, 50),
            "item_p90_ms": 1000 * nearest_rank(per_item, 90)}


def end_to_end(session, workload, seed, seconds):
    """End-to-end metrics, request times at the reference speed, plus
    their wall-clock values for the record."""
    def probe_setups(probes):
        return [session.worker("setup", workload, seed)["setup_s"]
                for _ in range(probes)]

    # A set-up is too short to scale by the reference times next to it,
    # so the median of many, half before and half after the requests,
    # is scaled by the requests' own speed factor: the box's slow
    # phases last minutes, and set-up slows with them.
    before = probe_setups(SETUP_PROBES // 2)
    run = session.worker("items", workload, seed, seconds)
    setups = before + probe_setups(SETUP_PROBES - len(before))
    speed = sum(run["scaled_totals"]) / sum(run["pass_totals"])
    setup_s = statistics.median(setups)
    common = {"peak_rss_mb": run["peak_rss_mb"]}
    metrics = dict(item_stats(run["scaled"]), setup_s=setup_s * speed,
                   **common)
    passes = len(run["pass_totals"])
    per_pass = [item_stats([[t[k]] for t in run["scaled"]])
                for k in range(passes)]
    spreads = {name: spread([p[name] for p in per_pass])
               for name in per_pass[0]}
    spreads["setup_s"] = spread(setups)
    correct = not run["failed"] and run["digest_ok"]
    detail = {"passes": passes,
              "wall_clock": dict(item_stats(run["times"]),
                                 setup_s=setup_s, **common),
              "setup_samples_s": setups,
              "pass_totals_s": run["scaled_totals"],
              "pass_wall_s": run["pass_totals"],
              "digest_ok": run["digest_ok"],
              "in_run_spread": spreads, "request_times_s": run["scaled"],
              "request_wall_s": run["times"]}
    return metrics, run["failed"], correct, detail


def per_layer(session, workload, seed, seconds):
    """Per-layer metrics of a traced process (each pass's times scaled
    by that pass's reference-speed factor), and the tracing overhead
    against an untraced process."""
    units = declared_metrics()[1]
    plain = session.worker("items", workload, seed, seconds / 2)
    traced = session.worker("trace", workload, seed, seconds / 2)
    factors = [scaled / wall for scaled, wall
               in zip(traced["scaled_totals"], traced["pass_totals"])]
    layers = [{name: value * f if units[name] == "s"
               else value / f if units[name] == "1/s" else value
               for name, value in layer.items()}
              for layer, f in zip(traced["layers"], factors)]
    metrics = {name: statistics.median(p[name] for p in layers)
               for name in layers[0]}
    # set-up ran just before the first pass
    metrics["tangles.enumerate_s"] = traced["enumerate_s"] * factors[0]
    metrics["cli.bytes_out"] = traced["bytes_out"]
    for name, use in traced["caches"].items():
        calls = use["hits"] + use["misses"]
        metrics[f"qseries.{name}.hits"] = use["hits"]
        metrics[f"qseries.{name}.misses"] = use["misses"]
        metrics[f"qseries.{name}.hit_ratio"] = (use["hits"] / calls
                                                if calls else 0.0)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced["scaled_totals"])
        / statistics.median(plain["scaled_totals"]) - 1)
    # The batch rate stays on the wall clock: the reference loop does
    # not follow two pool workers on both CPUs.  It is a corpus12
    # metric and reads 0 on the other workloads.
    batches = ([session.worker("batch", workload, seed)
                for _ in range(BATCH_PASSES)]
               if workload == "corpus12" else [])
    batch_rates = [BATCH_ITEMS / b["batch_s"] for b in batches]
    metrics["cli.batch_j2_items_per_s"] = (statistics.median(batch_rates)
                                           if batches else 0.0)
    spreads = {name: spread([p[name] for p in layers])
               for name in layers[0]}
    spreads["cli.batch_j2_items_per_s"] = spread(batch_rates)
    failed = sorted(set(plain["failed"]) | set(traced["failed"]))
    correct = (not failed and plain["digest_ok"] and traced["digest_ok"]
               and all(b["batch_ok"] for b in batches))
    detail = {"passes": len(layers),
              "batch_passes": batches,
              "untraced_pass_totals_s": plain["scaled_totals"],
              "traced_pass_totals_s": traced["scaled_totals"],
              "traced_pass_wall_s": traced["pass_totals"],
              "in_run_spread": spreads}
    return metrics, failed, correct, detail


def measure(session, workload, seed, seconds, trace):
    """Measure one workload; prints the human-readable report and
    returns the result object."""
    units = declared_metrics()[1 if trace else 0]
    run = per_layer if trace else end_to_end
    values, failed, correct, detail = run(session, workload, seed, seconds)
    attempted = SIZES[workload]
    detail.update(workload=workload, seed=seed, seconds=seconds,
                  trace=trace, environment=environment(),
                  failed_items=failed)
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failed),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload}-{seed}-trace{trace}"
                           ".json"), "w") as fh:
        json.dump(dict(result, detail=detail), fh, indent=1)

    print(f"{workload}: {attempted} requests x {detail['passes']} passes, "
          f"seed {seed}, correct={correct}")
    print(f"  failed_frac = {len(failed)}/{attempted}")
    print("  environment: " + ", ".join(
        f"{k}={v}" for k, v in detail["environment"].items()))
    wall = detail.get("wall_clock", {})
    for name, unit in units.items():
        notes = []
        if name in wall and wall[name] != values[name]:
            notes.append(f"wall clock {wall[name]:.6g}")
        spread_in_run = detail["in_run_spread"].get(name)
        if spread_in_run is not None:
            notes.append(f"in-run spread {spread_in_run:.1%}")
        note = f"  ({'; '.join(notes)})" if notes else ""
        print(f"  {name} = {values[name]:.6g} {unit}{note}")
    return result


def record(session):
    """Store the current outputs' digests as the expected ones."""
    stored = {}
    for workload in WORKLOADS:
        rec = session.worker("record", workload, 0)
        if rec["failed"]:
            raise BenchError(f"{workload}: requests failed: "
                             f"{rec['failed']}")
        stored[workload] = {"digest": rec["digest"],
                            "outputs": rec["outputs"]}
    with open(EXPECTED, "w") as fh:
        json.dump(stored, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quivertangle", "cli.py")):
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record:
            record(Session())
            return 0
        if args.workload != "all":
            result = measure(Session(), args.workload, args.seed,
                             args.seconds, args.trace)
        else:
            results = {w: measure(Session(), w, args.seed, args.seconds,
                                  args.trace) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()}}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
