"""The fundom benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from anywhere; the program is imported from ../src, nothing is
installed.  A run of one workload:

  1. spawns PROBES fresh workers that only import fundom and generate
     the jobs, for set-up time;
  2. runs passes (the whole pool once, see workloads.py), each in a
     fresh worker, one after another: MIN_PASSES, and more while another
     whole pass fits into --seconds of job time at reference speed (see
     below).  One pass takes about 10 s at the seed commit.
     The loop is closed: one client, each job starts when the previous
     one ends, and the CLI workload runs one child process at a time;
  3. with --trace 1, follows every untraced pass by a traced pass over
     the same jobs, and reports per-layer metrics and the tracing
     overhead (traced minus untraced job time) instead of end-to-end
     ones, which come from untraced passes only.  The spans are written
     to .perfbench_tmp/trace-<workload>-seed<n>.json when the run ends;
  4. checks every job (see workloads.check), and writes each job's wall
     time and speed sample to .perfbench_tmp/jobs-<workload>-seed<n>.json.

On a shared machine (a 2-core VM, say) the speed drifts by 20 % or more
within minutes.  So job times are reported at reference speed: each
job's wall time is scaled by SPEED_REF_S over the median of the speed
samples taken just before and after it (workloads.speed_sample).  On an
idle machine the two agree; the human-readable lines also give the
wall-clock median.  setup_s and the per-layer times are wall time.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is
1 when any job failed, 2 when the program or the reference outputs are
missing, and 3 when a worker died.

Regenerate reference.json with make_reference.py, only when an output
is meant to change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import spans as sp
import workloads as wl

HERE = Path(__file__).resolve().parent
TMP = wl.ROOT / ".perfbench_tmp"
PROBES = 5
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "reps_per_s": ("1/s", "higher"),
    "job_p50_s": ("s", "lower"),
    "job_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer times: total duration of the named spans (outermost only),
# per pass.
LAYER_TIMES = {
    "projline.enumerate_p1_s": {"projline.enumerate_p1"},
    "projline.m_table_s": {"projline.m_table"},
    "projline.m_distribution_s": {"projline.m_distribution"},
    "words.evaluate_s": {"words.evaluate"},
    "cosets.build_s": {"cosets.build", "cosets.theta0", "cosets.theta1",
                       "cosets.theta_full"},
    "cosets.verify_s": {"cosets.verify"},
    "cayley.build_graph_s": {"cayley.build_graph"},
    "cayley.bfs_s": {"cayley.is_connected", "cayley.spanning_tree",
                     "cayley.tree_depth"},
    "domain.cusp_table_s": {"domain.cusp_table"},
    "domain.render_svg_s": {"domain.render_svg"},
    "cli.list_s": {"cli.list"},
    "cli.verify_load_s": {"cli.verify_load"},
    "cli.verify_sweep_s": {"cli.verify_sweep"},
    "cli.render_s": {"cli.render"},
    "cli.graph_s": {"cli.graph"},
    "cli.cusps_s": {"cli.cusps"},
    "cli.mtable_s": {"cli.mtable"},
}

# Per-layer counts: sum of a job count over the jobs of a pass.
LAYER_COUNTS = {
    "projline.classes": ("classes", "count", "higher"),
    "cosets.reps": ("reps", "count", "higher"),
    "cosets.expected": ("expected", "count", "higher"),
    "cosets.failures": ("failures", "count", "lower"),
    "cayley.edges": ("edges", "count", "higher"),
    "cayley.components": ("components", "count", "lower"),
    "cayley.tree_depth": ("tree_depth", "count", "lower"),
    "domain.cusp_classes": ("cusp_classes", "count", "higher"),
    "domain.svg_bytes": ("svg_bytes", "bytes", "lower"),
    "cli.out_bytes": ("out_bytes", "bytes", "lower"),
    "cli.exit_nonzero": ("exit_nonzero", "count", "lower"),
}

# name: (unit, better), in the order they are printed
PER_LAYER = {name: ("s", "lower") for name in LAYER_TIMES}
PER_LAYER.update({name: (unit, better) for name, (_, unit, better)
                  in LAYER_COUNTS.items()})
PER_LAYER.update({
    "projline.us_per_class": ("us", "lower"),
    "words.us_per_rep": ("us", "lower"),
    "cli.known_defect_exits": ("code", "lower"),
})
for _layer in sp.LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.share"] = ("ratio", "lower")
    if _layer != "bench":
        PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
PER_LAYER.update({
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
})


class WorkerDied(RuntimeError):
    pass


class Pass:
    def __init__(self, setup_s: float, doc: dict):
        self.setup_s = setup_s
        self.results = doc.get("results", [])
        self.peak_rss_mb = doc.get("peak_rss_mb")
        self.spans = doc.get("spans", [])

    def job_time(self) -> float:
        """Job time of the pass at reference speed."""
        return sum(reference_seconds(r) for r in self.results
                   if r["latency"] is not None)


def spawn(workload: str, seed: int, pass_index: int, mode: str) -> Pass:
    """Run one worker to completion; time its spawn-to-ready set-up."""
    tmp = tempfile.mkdtemp(dir=TMP)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(pass_index), mode, tmp]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=wl.child_env(),
                            cwd=wl.ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or not ready.startswith(b'{"ready"'):
        raise WorkerDied(f"{workload} {mode} pass {pass_index}: exit {code}")
    doc = json.loads(rest) if mode != "probe" else {}
    if mode != "probe" and "results" not in doc:
        raise WorkerDied(f"{workload} {mode} pass {pass_index}: no results")
    return Pass(setup_s, doc)


def tally(passes: list[Pass], reference: dict):
    """The results that passed every check, and (key, problems) for the
    rest."""
    ok, failures = [], []
    for p in passes:
        for r in p.results:
            problems = wl.check(r, reference)
            if problems:
                failures.append((r["key"], problems))
            else:
                ok.append(r)
    return ok, failures


def reference_seconds(result: dict) -> float:
    """A job's latency scaled to the reference machine speed: its wall
    time times SPEED_REF_S over the speed samples taken around it."""
    return result["latency"] * wl.SPEED_REF_S / result["speed"]


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least 10 samples beyond it, and its
    rank in percent; the maximum when there are 10 samples or fewer."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100
    i = len(s) - 11
    return s[i], (100 * (i + 1)) // len(s)


def end_to_end(runs: list[Pass], setups: list[float], ok: list[dict]):
    if not ok:
        return {}, {}
    lat = [reference_seconds(r) for r in ok]
    reps = sum(r["reps"] for r in ok)
    value, rank = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "reps_per_s": reps / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": value,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in runs),
    }
    wall = statistics.median(r["latency"] for r in ok)
    speed = statistics.median(wl.SPEED_REF_S / r["speed"] for r in ok)
    notes = {
        "setup_s": f"median of {len(setups)} fresh workers",
        "reps_per_s": f"{reps} reps over {len(lat)} jobs",
        "job_p50_s": f"{len(lat)} samples; wall-clock median {wall:.4f} s, "
                     f"machine at {speed:.3f} of reference speed",
        "job_tail_s": f"p{rank} of {len(lat)} samples",
        "peak_rss_mb": f"median of {len(runs)} workers",
    }
    return metrics, notes


def per_layer(runs: list[Pass], traced: list[Pass], defect_exit: int):
    """Per-layer metrics, each per traced pass.  Times are wall seconds
    from the spans, counts are sums over the jobs of a pass, and a share
    is a layer's self time over the total time of the job spans."""
    n = len(traced)
    m = {name: 0.0 for name in PER_LAYER}
    job_total = 0.0
    evaluated = 0
    for p in traced:
        for name, names in LAYER_TIMES.items():
            m[name] += sp.outer_total(p.spans, names) / n
        for layer, entry in sp.layer_summary(p.spans).items():
            m[f"{layer}.self_s"] += entry["self_s"] / n
            if layer != "bench":
                m[f"{layer}.calls"] += entry["calls"] / n
        job_total += sum(s[sp.END] - s[sp.START] for s in p.spans
                         if s[sp.NAME] == "job")
        evaluated += sum(s[sp.COUNT] for s in p.spans
                         if s[sp.NAME] == "words.evaluate")
        for name, (field, _, _) in LAYER_COUNTS.items():
            m[name] += sum(r["counts"].get(field, 0) for r in p.results) / n
        m["trace.spans"] += len(p.spans) / n
    for layer in sp.LAYERS:
        m[f"{layer}.share"] = m[f"{layer}.self_s"] * n / job_total
    if m["projline.classes"]:
        m["projline.us_per_class"] = (
            1e6 * m["projline.self_s"] / m["projline.classes"])
    if evaluated:
        m["words.us_per_rep"] = 1e6 * m["words.evaluate_s"] * n / evaluated
    untraced = sum(p.job_time() for p in runs) / len(runs)
    m["trace.overhead_s"] = sum(p.job_time() for p in traced) / n - untraced
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / untraced
    m["cli.known_defect_exits"] = defect_exit
    return m


def known_defect_exit() -> int:
    """Exit code of the README form `fundom verify --load <file>`."""
    path = str(TMP / "readme-theta0-30.json")
    wl.run_cli(["list", "--N", "30", "--group", "gamma0", "-o", path])
    return wl.run_cli(["verify", "--load", path]).returncode


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = wl.load_reference()[workload]
    setups = [spawn(workload, seed, -1 - i, "probe").setup_s
              for i in range(PROBES)]
    runs, traced = [], []
    # Whole passes only: every pass does the same work, so a partial one
    # would skew the mix.  At least MIN_PASSES (one pair when traced, as
    # the per-layer metrics have no bound), then more while another pass
    # still fits into `seconds` of job time at reference speed.  So the
    # number of samples, and with it the rank of job_tail_s, follows the
    # program's speed but not the machine's.
    least = 1 if trace else MIN_PASSES
    while True:
        runs.append(spawn(workload, seed, len(runs), "run"))
        setups.append(runs[-1].setup_s)
        if trace:
            traced.append(spawn(workload, seed, len(traced), "trace"))
        used = sum(p.job_time() for p in runs + traced)
        more = used / len(runs)
        if len(runs) >= least and (not used or used + more > seconds):
            break

    ok, failures = tally(runs, reference)
    failures += tally(traced, reference)[1]
    attempted = sum(len(p.results) for p in runs + traced)
    for key, problems in failures:
        print(f"FAIL {workload} {key}: {'; '.join(problems)}")

    (TMP / f"jobs-{workload}-seed{seed}.json").write_text(json.dumps(
        [[(r["key"], r["latency"], r["speed"]) for r in p.results] for p in runs]))
    if trace:
        metrics = per_layer(runs, traced, known_defect_exit())
        notes = {}
        out = TMP / f"trace-{workload}-seed{seed}.json"
        out.write_text(json.dumps([p.spans for p in traced]))
    else:
        metrics, notes = end_to_end(runs, setups, ok)
    units = END_TO_END if not trace else PER_LAYER
    for name, value in metrics.items():
        unit, better = units[name]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:17} {name:26} {value:14.6f} {unit:5} "
              f"{better} is better{note}")
    if not trace:
        ratio = len(failures) / attempted
        print(f"{workload:17} {'failed_ratio':26} {ratio:14.6f} ratio "
              f"lower is better  ({len(failures)} of {attempted} jobs)")
    return {"attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k][0]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (wl.SRC / "fundom" / "__init__.py").is_file():
        print(f"error: no fundom sources under {wl.SRC}", file=sys.stderr)
        return 2
    if not wl.REFERENCE.is_file():
        print(f"error: missing {wl.REFERENCE}", file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)

    chosen = wl.WORKLOADS if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in chosen:
            res = measure(workload, args.seed, args.seconds, bool(args.trace))
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            prefix = f"{workload}." if len(chosen) > 1 else ""
            for name, metric in res["metrics"].items():
                total["metrics"][prefix + name] = metric
    except WorkerDied as exc:
        print(f"error: worker died: {exc}", file=sys.stderr)
        return 3
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
