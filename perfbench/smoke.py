"""Smoke test of the benchmark, about half a minute:

    python3 perfbench/smoke.py

Runs one job of each workload untraced and one traced run, and checks that
every metric BENCHMARK.json names is emitted with its unit, that the
counting wrappers are gone afterwards, and that the table copies in jobs.py
still equal the tables in bec.cli.  Exits 1 on the first failed check.
"""

import json
import os
import sys

import env
import run


def check(cond, what):
    if not cond:
        sys.stderr.write("smoke: FAILED: %s\n" % what)
        sys.exit(1)


def check_metrics(metrics, spec, what):
    want = {m["name"]: m["unit"] for m in spec}
    check(set(metrics) == set(want), "%s metrics %s != %s"
          % (what, sorted(metrics), sorted(want)))
    for name, (value, unit) in metrics.items():
        check(unit == want[name], "%s %s has unit %r, not %r"
              % (what, name, unit, want[name]))
        check(isinstance(value, (int, float)) and value != 0,
              "%s %s has value %r" % (what, name, value))


def main():
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bec = env.import_bec()
    import jobs
    import tracing
    from bec import cli

    for name in ("LAPLACE_ROWS", "LAPLACE_AFFILIATION_ROWS", "DIRAC_ROWS",
                 "REGDIRAC_ROWS", "REGDIRAC_BULK"):
        check(getattr(jobs, name) == getattr(cli, name),
              "jobs.%s differs from bec.cli.%s" % (name, name))

    pools, by_name = jobs.build_jobs(bec)
    check(sorted(pools) == sorted(w["name"] for w in spec["workloads"]),
          "workloads differ from BENCHMARK.json")
    originals = tracing.counted_names(bec)
    for workload, slots in pools.items():
        one = {workload: [slots[0][:1]]}
        records, metrics = run.timed_run(one, workload, 0, 0.0)
        check(len(records) == 1, "%s ran %d jobs" % (workload, len(records)))
        check(records[0].ok, "%s job %s: %r" % (workload, records[0].job.name,
                                                records[0].got))
        check_metrics(metrics, spec["end_to_end"], workload)
    check(tracing.counted_names(bec) == originals,
          "an untraced run changed a counted name")

    records, metrics = run.traced_run(bec, jobs, by_name, "bulk-pairing",
                                      0.0)
    check(all(r.ok for r in records), "a reference job failed")
    check_metrics(metrics, spec["per_layer"], "traced")
    check(tracing.counted_names(bec) == originals,
          "a counting wrapper is still installed")
    print("smoke: ok")


if __name__ == "__main__":
    main()
