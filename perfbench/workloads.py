"""Workload pools, job generation, job runners and output checks.

Three workloads, each a fixed pool of jobs:

  gamma0-composite  Gamma_0 levels, mostly highly composite, run in
                    process: P^1 scans do almost all the work.
  index-heavy       Gamma(N) and Gamma_1(N) lists of 10^3..10^5 reps,
                    run in process: words, cosets and cayley dominate.
  cli-roundtrip     fresh `fundom` processes at small and medium N:
                    start-up, argparse, formatting and the load path.

One pass runs every job of the pool exactly once, in an order (and, for
the CLI, an output format) drawn from the seed and the pass number, so
every pass does the same work.  In the in-process workloads no level
repeats across the jobs of a pass; each pass runs in its own fresh
worker process (worker.py), so a per-level cache in the program can help
inside a job but never across jobs.  CLI jobs share levels (a list and
its load), but each runs in a fresh process.

Every job is checked: list lengths against a closed-form index computed
here (not imported from fundom), `verify` must pass, graphs must be
connected, and the sha256 of every artifact must match reference.json.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from math import gcd
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("gamma0-composite", "index-heavy", "cli-roundtrip")
GROUPS = ("gamma0", "gamma1", "gammaN")

# Highly and largely composite levels, two prime powers (125, 128) and a
# prime (131).  Many levels of close cost, rather than a few far apart,
# keep the median and the tail (the 11th-slowest of 45 jobs: 240 and 210
# take the first six places) from resting on the gap between two levels,
# which on a shared machine made them unsteady.  The pool stops at 240: one
# Gamma_0(360) job takes 2.6 s and one Gamma_0(720) job 13 s at the seed
# commit, so larger levels would leave too few jobs in a run.
GAMMA0_POOL = (120, 125, 126, 128, 131, 132, 140, 144, 150, 156, 160, 168,
               180, 210, 240)

# Gamma(N) lists up to 69,120 reps (N = 60), Gamma_1(N) up to 9,216.
# Gamma_1 stops at 168: theta1 scans P^1 twice, and Gamma_1(180) and
# Gamma_1(210) doubled the projline share of this workload to 11 %.
INDEX_POOL = (
    ("gammaN", 24), ("gammaN", 32), ("gammaN", 36), ("gammaN", 40),
    ("gammaN", 42), ("gammaN", 48), ("gammaN", 60),
    ("gamma1", 96), ("gamma1", 144), ("gamma1", 168),
)

# CLI levels: Gamma_0 up to 120, Gamma_1 up to 60, Gamma(N) up to 30.
# Six jobs of 0.4..0.7 s (the Gamma(30) list and load, the Gamma(30)
# picture, three --group all sweeps) hold the tail, so it rests on many
# samples, not on a gap between two levels.
CLI_LIST = (
    ("gamma0", 60), ("gamma0", 120), ("gamma1", 36), ("gamma1", 60),
    ("gammaN", 12), ("gammaN", 20), ("gammaN", 30),
)
CLI_RENDER = (
    ("svg", "gamma0", 120), ("svg", "gamma1", 30), ("svg", "gammaN", 16),
    ("svg", "gammaN", 30),
    ("json", "gamma0", 72), ("json", "gamma1", 42), ("json", "gammaN", 12),
)
CLI_GRAPH = (("gamma0", 108), ("gamma1", 40), ("gammaN", 18))
CLI_CUSPS = (84, 120)
CLI_CUSPS_FORMATS = ("text", "csv")
CLI_MTABLE = (90, 120)
CLI_MTABLE_FORMATS = ("text", "csv", "json")
CLI_SWEEPS = ((2, 9, "all"), (10, 17, "all"), (18, 21, "all"),
              (22, 24, "all"), (18, 30, "gamma0"))

# The console script `fundom` is `fundom.cli:main`; run it the same way
# from source so no install is needed.
CLI_ENTRY = "import sys; from fundom.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120
SPEED_SAMPLES = 10
# median of speed_sample() on a shared 2-core x86 VM, Python 3.11
SPEED_REF_S = 4.5e-4


# ---------------------------------------------------------------------------
# closed-form index, the bench's own oracle


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def psi(n: int) -> int:
    """N * prod(1 + 1/p) over the primes p dividing N."""
    r = n
    for p in prime_factors(n):
        r = r // p * (p + 1)
    return r


def phi(n: int) -> int:
    r = n
    for p in prime_factors(n):
        r = r // p * (p - 1)
    return r


def index(group: str, n: int) -> int:
    """Number of cosets of Gamma_0(N), +-Gamma_1(N) or +-Gamma(N)."""
    if group == "gamma0":
        return psi(n)
    half = 1 if n == 2 else 2
    if group == "gamma1":
        return phi(n) * psi(n) // half
    return n * phi(n) * psi(n) // half


# ---------------------------------------------------------------------------
# job generation


def make_jobs(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The jobs of one pass: the whole pool in a seed-drawn order."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "gamma0-composite":
        units = [[_inproc("gamma0", n, 2 * psi(n))] for n in GAMMA0_POOL]
    elif workload == "index-heavy":
        units = [[_inproc(g, n, index(g, n))] for g, n in INDEX_POOL]
    elif workload == "cli-roundtrip":
        units = _cli_units(rng.choice)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(units)
    jobs = [job for unit in units for job in unit]
    for i, job in enumerate(jobs):
        job["id"] = f"{pass_index}.{i}"
    return jobs


def _inproc(group: str, n: int, reps: int) -> dict:
    # reps: the sizes of every list the job builds.  A gamma0 job builds
    # Theta_0(N) itself and cusp_table builds it once more.
    return {"kind": group, "group": group, "n": n, "key": f"{group}:{n}",
            "levels": [(group, n)], "reps": reps}


def _cli(kind: str, args: list[str], levels: list, reps: int) -> dict:
    return {"kind": kind, "args": args, "key": " ".join(args),
            "levels": levels, "reps": reps}


def _cli_units(pick) -> list[list[dict]]:
    """The CLI pool in units that stay together; `pick` chooses each
    output format."""
    units = []
    for g, n in CLI_LIST:
        path = f"{{tmp}}/theta-{g}-{n}.json"
        lv, reps = [(g, n)], index(g, n)
        units.append([
            _cli("list", ["list", "--N", str(n), "--group", g, "-o", path],
                 lv, reps),
            _cli("verify_load", ["verify", "--N", str(n), "--load", path],
                 lv, reps),
        ])
    for fmt, g, n in CLI_RENDER:
        units.append([_cli("render", ["render", "--N", str(n), "--group", g,
                                      "--format", fmt], [(g, n)], index(g, n))])
    for g, n in CLI_GRAPH:
        units.append([_cli("graph", ["graph", "--N", str(n), "--group", g],
                           [(g, n)], index(g, n))])
    for n in CLI_CUSPS:
        fmt = pick(CLI_CUSPS_FORMATS)
        units.append([_cli("cusps", ["cusps", "--N", str(n), "--format", fmt],
                           [("gamma0", n)], psi(n))])
    for n in CLI_MTABLE:
        fmt = pick(CLI_MTABLE_FORMATS)
        units.append([_cli("mtable", ["mtable", "--N", str(n), "--format",
                                      fmt], [("gamma0", n)], 0)])
    for lo, hi, group in CLI_SWEEPS:
        lv = [(g, n) for n in range(lo, hi + 1)
              for g in (GROUPS if group == "all" else (group,))]
        units.append([_cli("verify_sweep", ["verify", "--sweep", f"{lo}..{hi}",
                                            "--group", group], lv,
                           sum(index(g, n) for g, n in lv))])
    return units


def all_reference_jobs(workload: str) -> list[dict]:
    """Every job any seed can draw, each output variant once."""
    if workload != "cli-roundtrip":
        return make_jobs(workload, 0, 0)
    jobs = {}
    for i in range(len(CLI_MTABLE_FORMATS)):
        for unit in _cli_units(lambda opts: opts[min(i, len(opts) - 1)]):
            for job in unit:
                jobs.setdefault(job["key"], job)
    for i, job in enumerate(jobs.values()):
        job["id"] = f"ref.{i}"
    return list(jobs.values())


def repeated_level_share(jobs: list[dict]) -> float:
    """Share of a pass's jobs that use a (group, N) an earlier job used."""
    seen, repeats = set(), 0
    for job in jobs:
        levels = {tuple(lv) for lv in job["levels"]}
        repeats += bool(levels & seen)
        seen |= levels
    return repeats / len(jobs)


# ---------------------------------------------------------------------------
# running one job


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("FUNDOM_OUT_DIR", None)
    return env


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *args],
        capture_output=True, env=child_env(), timeout=CLI_TIMEOUT_S,
    )


@contextmanager
def _timed(tracer, job):
    """Times the program calls of one job; with a tracer, as a job span."""
    clock = {}
    span = tracer.span("job", job=job["id"]) if tracer else nullcontext()
    with span:
        t0 = perf_counter()
        yield clock
        clock["latency"] = perf_counter() - t0


def run_job(job: dict, fundom, tracer=None, tmp: str = "") -> dict:
    """Run one job, check its outputs, and describe the result.

    Latency covers only the program's calls (or the child process);
    the checks run after the clock stops.  Any exception fails the job.
    """
    result = {"id": job["id"], "key": job["key"], "kind": job["kind"],
              "reps": job["reps"], "latency": None, "problems": [],
              "fp": {}, "counts": {}}
    # Every job starts from the same heap and collector state, whatever
    # ran before it; the collector stays on with its default thresholds.
    gc.collect()
    speed = [speed_sample() for _ in range(SPEED_SAMPLES)]
    try:
        if "args" in job:
            _cli_job(job, tracer, tmp, result)
        else:
            _inproc_job(job, fundom, tracer, result)
    except Exception as exc:  # any failure of the program fails the job
        report = getattr(exc, "report", None)
        if report is not None:
            result["counts"]["failures"] = (
                len(report.duplicates) + len(report.missing))
        result["problems"].append(f"{type(exc).__name__}: {exc}")
    speed += [speed_sample() for _ in range(SPEED_SAMPLES)]
    result["speed"] = median(speed)
    return result


def speed_sample() -> float:
    """Seconds for a fixed loop of integer arithmetic and gcd calls.

    A shared machine's speed drifts by 20 % or more over minutes.
    Samples taken just before and after a job tell how fast the machine
    ran it.  The loop allocates nothing the collector tracks, so
    the program's heap cannot slow it.
    """
    t0 = perf_counter()
    acc = 0
    for a in range(1, 1500):
        acc += gcd(a * 7919 % 2003, 2002) + (a * a) % 13
    return perf_counter() - t0


def _inproc_job(job, fundom, tracer, result):
    n, group = job["n"], job["group"]
    level = fundom.residues.Level(n)
    expected = index(group, n)
    with _timed(tracer, job) as clock:
        if group == "gamma0":
            classes = fundom.projline.psi(level)
            mt = fundom.projline.m_table(level)
            dist = fundom.projline.m_distribution(level)
            lst = fundom.cosets.theta0(level)
        else:
            lst = fundom.cosets.build(level, fundom.cosets.Group(group))
        lst.mats
        report = fundom.cosets.verify(lst)
        graph = fundom.cayley.build_graph(lst)
        connected = fundom.cayley.is_connected(graph)
        depth = fundom.cayley.spanning_tree(graph).depth()
        if group == "gamma0":
            table = fundom.domain.cusp_table(level)
            svg = fundom.domain.render_svg(lst)
    result["latency"] = clock["latency"]

    problems = result["problems"]
    if len(lst) != expected:
        problems.append(f"{len(lst)} reps, closed-form index {expected}")
    if not connected:
        problems.append("generator graph not connected")
    edges = sum(len(a) for a in graph.adj) // 2
    fp = {
        "list": digest("\n".join(str(w) for w in lst.reps)),
        "verify": str(report),
        "edges": edges,
        "tree_depth": depth,
    }
    counts = {
        "classes": psi(n), "reps": len(lst), "expected": expected,
        "failures": len(report.duplicates) + len(report.missing),
        "edges": edges, "components": components(graph.adj),
        "tree_depth": depth,
    }
    if group == "gamma0":
        if classes != psi(n):
            problems.append(f"psi {classes}, closed form {psi(n)}")
        fp["m_table"] = digest(json.dumps(
            {str(j): m for j, m in mt.entries.items()}))
        fp["m_distribution"] = digest(json.dumps(
            {str(m): c for m, c in dist.items()}))
        fp["cusps"] = digest("\n".join(
            f"{cl.rep} {cl.width} {' '.join(map(str, cl.members))}"
            for cl in table.classes))
        fp["svg"] = digest(svg)
        counts["cusp_classes"] = len(table.classes)
        counts["svg_bytes"] = len(svg.encode())
    result["fp"], result["counts"] = fp, counts


def _cli_job(job, tracer, tmp, result):
    args = [a.replace("{tmp}", tmp) for a in job["args"]]
    span = tracer.span(f"cli.{job['kind']}") if tracer else nullcontext()
    with _timed(tracer, job) as clock:
        with span:
            proc = run_cli(args)
    result["latency"] = clock["latency"]
    out = proc.stdout
    if job["kind"] == "list":
        if out:
            result["problems"].append("list -o wrote to stdout")
        out = Path(args[-1]).read_bytes()
    if proc.returncode != 0:
        result["problems"].append(
            f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    result["fp"] = {"exit": proc.returncode, "output": digest(out)}
    result["counts"] = {"out_bytes": len(out),
                        "exit_nonzero": int(proc.returncode != 0)}


def components(adj: list[list[int]]) -> int:
    seen, count = [False] * len(adj), 0
    for root in range(len(adj)):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def check(result: dict, reference: dict) -> list[str]:
    """Problems with one job result: its own, plus digest mismatches."""
    problems = list(result["problems"])
    if result["latency"] is None:
        return problems or ["no result"]
    want = reference.get(result["key"])
    if want is None:
        problems.append("no reference output")
    elif result["fp"] != want:
        bad = sorted(k for k in set(want) | set(result["fp"])
                     if want.get(k) != result["fp"].get(k))
        problems.append(f"output differs from reference: {', '.join(bad)}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
