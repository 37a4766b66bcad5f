"""Tests of the benchmark itself: job generation, the closed-form index
oracle, the failure accounting and the traced run's spans."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

if str(wl.SRC) not in sys.path:
    sys.path.insert(0, str(wl.SRC))
import fundom  # noqa: E402


def small_gamma0_job(n=12):
    return {**wl._inproc("gamma0", n, 2 * wl.psi(n)), "id": "t.0"}


def test_jobs_are_deterministic_per_seed():
    for w in wl.WORKLOADS:
        assert wl.make_jobs(w, 7, 2) == wl.make_jobs(w, 7, 2)
        orders = {tuple(j["key"] for j in wl.make_jobs(w, s, 0))
                  for s in range(5)}
        assert len(orders) > 1


def test_a_pass_runs_the_whole_pool_once():
    for w in wl.WORKLOADS:
        pool = sorted(j["key"] for j in wl.make_jobs(w, 0, 0))
        for seed in range(5):
            jobs = wl.make_jobs(w, seed, seed)
            if w != "cli-roundtrip":
                assert sorted(j["key"] for j in jobs) == pool
                assert wl.repeated_level_share(jobs) == 0
            assert len(jobs) == len(pool)


def test_every_job_has_reference_outputs():
    reference = wl.load_reference()
    for w in wl.WORKLOADS:
        for seed in range(10):
            for job in wl.make_jobs(w, seed, 0):
                assert job["key"] in reference[w]


def test_cli_list_is_followed_by_its_load():
    jobs = wl.make_jobs("cli-roundtrip", 3, 0)
    for i, job in enumerate(jobs):
        if job["kind"] == "list":
            nxt = jobs[i + 1]
            assert nxt["kind"] == "verify_load"
            assert nxt["args"][-1] == job["args"][-1]


@pytest.mark.parametrize("n", range(2, 17))
def test_index_oracle_agrees_with_verify(n):
    level = fundom.residues.Level(n)
    for g in wl.GROUPS:
        if g == "gammaN" and n > 12:
            continue
        lst = fundom.cosets.build(level, fundom.cosets.Group(g))
        report = fundom.cosets.verify(lst)
        assert len(lst) == report.expected == wl.index(g, n)


def test_index_oracle_values():
    assert [wl.psi(n) for n in (2, 6, 30, 720)] == [3, 12, 72, 1728]
    assert wl.index("gamma1", 2) == 3
    assert wl.index("gammaN", 2) == 6
    assert wl.index("gammaN", 60) == 69120


def test_corrupted_digest_is_counted_as_a_failure():
    job = small_gamma0_job()
    good = wl.run_job(job, fundom)
    reference = {job["key"]: dict(good["fp"])}
    ok, failures = bench.tally([bench.Pass(0.0, {"results": [good]})],
                               reference)
    assert len(ok) == 1 and failures == []

    reference[job["key"]]["svg"] = "0" * 64
    ok, failures = bench.tally([bench.Pass(0.0, {"results": [good]})],
                               reference)
    assert ok == []
    assert failures == [(job["key"],
                         ["output differs from reference: svg"])]


def test_duplicated_representative_is_counted_as_a_failure(monkeypatch):
    real = fundom.cosets.theta0

    def with_duplicate(level):
        lst = real(level)
        lst.reps[-1] = lst.reps[0]  # same length, one coset twice
        return lst

    monkeypatch.setattr(fundom.cosets, "theta0", with_duplicate)
    job = small_gamma0_job()
    result = wl.run_job(job, fundom)
    assert result["latency"] is None
    assert result["counts"]["failures"] >= 1
    ok, failures = bench.tally([bench.Pass(0.0, {"results": [result]})],
                               {job["key"]: {}})
    assert ok == [] and len(failures) == 1


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    assert bench.tail(values) == (89.0, 90)
    assert bench.tail([1.0, 2.0]) == (2.0, 100)


def test_traced_job_nests_cross_layer_calls_and_uninstalls():
    originals = (fundom.cosets.theta0, fundom.projline.m_table,
                 fundom.cosets.CosetList.mats)
    tracer = spans.Tracer()
    tracer.install(fundom)
    try:
        result = wl.run_job(small_gamma0_job(), fundom, tracer)
    finally:
        tracer.uninstall()
    assert result["problems"] == []
    assert (fundom.cosets.theta0, fundom.projline.m_table,
            fundom.cosets.CosetList.mats) == originals

    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "job"
    parents = {(s[spans.NAME], tracer.spans[s[spans.PARENT]][spans.NAME])
               for s in tracer.spans if s[spans.PARENT] is not None}
    assert ("cosets.theta0", "job") in parents
    assert ("projline.m_table", "cosets.theta0") in parents
    assert ("projline.enumerate_p1", "cosets.verify") in parents
    assert ("cosets.theta0", "domain.cusp_table") in parents
    summary = spans.layer_summary(tracer.spans)
    job = tracer.spans[0][spans.END] - tracer.spans[0][spans.START]
    assert sum(e["self_s"] for e in summary.values()) == pytest.approx(job)


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["per_layer"]} == bench.PER_LAYER
