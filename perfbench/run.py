"""bec benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports bec from its src/ directory.
One process, one client, a closed loop: each job starts when the previous
one has finished.  The seed sets the job order and, for tables-flow, which
member of each mirror pair runs.  A run repeats whole rounds of its workload
until its jobs have taken S seconds at the reference speed (see speed.py),
so every run of a workload has the same mix.

--trace 0 prints the end-to-end metrics; --trace 1 runs the fixed reference
jobs and layer probes with counting wrappers installed and prints the
per-layer metrics.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  Earlier lines record the
environment, the tail percentiles and any failed job.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from contextlib import nullcontext

import env

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tables-flow", "tables-winding", "bulk-pairing")
KIND = {"tables-flow": "flow", "tables-winding": "winding",
        "bulk-pairing": "chern"}
SETUP_REPEATS = 5
BUILD_REPEATS = 5


Record = namedtuple("Record", "job seconds wall_s got ok")


def run_job(job, tracer, probe=None):
    """Run one job; an exception is a failed job, not a failed run.  Under
    a speed probe, `seconds` is the job's time at the reference speed;
    without one it is the wall time."""
    with probe.timing() if probe else nullcontext({}) as t:
        start = time.perf_counter()
        try:
            with tracer.span("job." + job.kind):
                got, ok = job.check(tracer)
        except Exception as exc:  # the benchmark records it and goes on
            got, ok = "%s: %s" % (type(exc).__name__, exc), False
        wall = time.perf_counter() - start
    return Record(job, t.get("ref_s", wall), wall, got, ok)


def draw_round(slots, rng):
    """One seed-chosen job of every slot, in seed order."""
    chosen = [rng.choice(slot) for slot in slots]
    rng.shuffle(chosen)
    return chosen


def cold_start_s():
    """Launch to `ready` of a fresh process that imports bec and builds
    every model, triple and condition, at the reference speed."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "coldstart.py")],
                          stdout=subprocess.PIPE, text=True,
                          cwd=env.ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        factor = proc.stdout.readline()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("cold start exited with status %s"
                           % proc.returncode)
    return (ready - start) * float(factor)


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count).  Up to 21 samples that percentile
    would not lie above the median, and the maximum stands in."""
    xs = sorted(values)
    n = len(xs)
    if n <= 21:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * i / (n - 1), n


def timed_run(pools, workload, seed, seconds):
    """Untraced run: whole rounds until the jobs have taken `seconds` at
    the reference speed."""
    from speed import SpeedProbe
    from tracing import NullTracer

    rng = random.Random(seed)
    tracer, probe = NullTracer(), SpeedProbe()
    records = []
    start = time.perf_counter()
    # the budget is in reference-speed seconds, so that the number of rounds
    # does not follow the VM's drift
    while not records or sum(r.seconds for r in records) < seconds:
        for job in draw_round(pools[workload], rng):
            records.append(run_job(job, tracer, probe))
    elapsed = time.perf_counter() - start

    setup = statistics.median(cold_start_s() for _ in range(SETUP_REPEATS))
    times = [r.seconds for r in records]
    value, pct, n = tail(times)
    print(json.dumps({"tail": {"job_s_tail": {"percentile": round(pct, 2),
                                              "samples": n}},
                      "wall": {"elapsed_s": elapsed,
                               "job_s_p50": statistics.median(
                                   r.wall_s for r in records)}}))
    metrics = {
        "setup_s": (setup, "s"),
        "jobs_per_s": (len(records) / sum(times), "1/s"),
        "ok_frac": (sum(r.ok for r in records) / len(records), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (value, "s"),
    }
    return records, metrics


def traced_run(bec, jobs, by_name, workload, seconds):
    """Traced run: in-process build time, layer probes, the reference job
    of every kind under the counting wrappers, then, for `seconds`,
    untraced/traced pairs of the workload's own reference job."""
    import tracing
    from speed import SpeedProbe

    originals = tracing.counted_names(bec)
    build = []
    for _ in range(BUILD_REPEATS):
        t = time.perf_counter()
        jobs.build_jobs(bec)
        build.append(time.perf_counter() - t)
    metrics = {"models.build_s": statistics.median(build)}
    metrics.update(tracing.probes(bec, jobs))

    tracer = tracing.Tracer()
    records = []
    with tracing.counting(bec, tracer):
        for name in jobs.REFERENCE_JOBS.values():
            records.append(run_job(by_name[name], tracer))
    # per-layer figures come from this pass, which runs without the sampler
    reference_spans = list(tracer.spans)
    own = by_name[jobs.REFERENCE_JOBS[KIND[workload]]]
    plain, traced = [], []
    null, probe = tracing.NullTracer(), SpeedProbe()
    pair = 0
    pairs_start = time.perf_counter()
    while pair == 0 or time.perf_counter() - pairs_start < seconds:
        for counted in ((False, True) if pair % 2 == 0 else (True, False)):
            if counted:
                with tracing.counting(bec, tracer):
                    traced.append(run_job(own, tracer, probe))
            else:
                plain.append(run_job(own, null, probe))
        pair += 1
    records += plain + traced
    if tracing.counted_names(bec) != originals:
        raise RuntimeError("a counting wrapper was left installed")

    spans = {}
    for s in reference_spans:
        spans.setdefault(s["name"], []).append(s)

    def med_s(name):
        return statistics.median(s["end"] - s["start"] for s in spans[name])

    def counts(name):
        return Counter(spans[name][0]["counts"])

    track = counts("edge.track_bands")
    out = spans["edge.track_bands"][0]["out"]
    wind = counts("edge.winding")
    aff = counts("extension.affiliation_check")
    chern = counts("symbol.chern")
    metrics.update({
        "edge.track_s": med_s("edge.track_bands"),
        "edge.fibers_per_track": track["fiberize"],
        "edge.detector_calls_per_track": track["ab_at"],
        "edge.detector_calls_per_fiber": track["ab_at"] / track["fiberize"],
        "edge.bands_per_track": out["bands"],
        "edge.samples_per_track": out["samples"],
        "edge.bulk_merges_per_track": out["bulk_merges"],
        "edge.winding_s": med_s("edge.winding"),
        "edge.phase_samples_per_winding": wind["phase_samples"],
        "models.fibers_per_winding": wind["fiberize"],
        "extension.affiliation_s": med_s("extension.affiliation_check"),
        "models.fibers_per_affiliation": aff["fiberize"],
        "symbol.chern_s": med_s("symbol.chern"),
        "numerics.quad_cells_per_chern": chern["quad_cells"],
        "symbol.eval_points_per_chern": chern["eval_points"],
        "symbol.eval_points_per_cell": (chern["eval_points"]
                                        / chern["quad_cells"]),
        "trace.overhead_frac": (
            statistics.median(r.seconds for r in traced)
            / statistics.median(r.seconds for r in plain) - 1.0),
    })
    print(json.dumps({"trace": {"reference_jobs": jobs.REFERENCE_JOBS,
                                "overhead_job": own.name,
                                "overhead_pairs": pair,
                                "spans": len(tracer.spans)}}))
    return records, {k: (v, unit_of(k)) for k, v in metrics.items()}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.startswith("trace."):
        return "frac"
    if ".column_ms." in name:
        return "ms"
    if "_us" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bec = env.import_bec()
    import jobs

    pools, by_name = jobs.build_jobs(bec)
    print(json.dumps({"env": env.describe(args.seed),
                      "workload": args.workload, "trace": args.trace}))
    if args.trace:
        records, metrics = traced_run(bec, jobs, by_name, args.workload,
                                      args.seconds)
    else:
        records, metrics = timed_run(pools, args.workload, args.seed,
                                     args.seconds)

    failed = [r for r in records if not r.ok]
    seen = set()
    for r in failed:
        if r.job.name not in seen:
            seen.add(r.job.name)
            print(json.dumps({"failed_job": r.job.name, "got": repr(r.got),
                              "expected": repr(r.job.expected),
                              "source": r.job.source,
                              "disputed": jobs.DISPUTED.get(r.job.name)}))
    print(json.dumps({
        "correct": all(r.job.name in jobs.DISPUTED for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
