"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <pass> <probe|run|trace> <tmp>

Imports fundom, generates the pass's jobs, then writes one JSON line
{"ready": ...} to stdout: run.py takes the time from its spawn to that
line as set-up time.  A probe stops there.  Otherwise it runs the jobs
one after another (traced, in a trace pass) and writes one more JSON
line with the job results, the peak RSS and the spans.

Nothing in the measured program is tuned: the collector stays on with
its default thresholds (run_job collects once between jobs, outside the
timed region, so each job starts from the same heap).
"""

from __future__ import annotations

import json
import resource
import sys

import workloads


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    workload, seed, pass_index, mode, tmp = argv
    import fundom

    jobs = workloads.make_jobs(workload, int(seed), int(pass_index))
    emit({"ready": len(jobs)})
    if mode == "probe":
        return 0

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(fundom)
    results = [workloads.run_job(job, fundom, tracer, tmp) for job in jobs]
    if tracer is not None:
        tracer.uninstall()

    # CLI jobs run in child processes: their peak counts as the pass's.
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    emit({"results": results, "peak_rss_mb": peak_kb / 1024,
          "spans": tracer.spans if tracer else []})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
