"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import JobRunner  # noqa: E402


# ---------------------------------------------------------------------------
# tail-percentile rule
# ---------------------------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 41))  # 40 samples
    value, pct = run.tail_value(values)
    assert value == 30
    assert sum(v > value for v in values) == 10
    assert pct == 75.0


def test_tail_ignores_input_order_and_uses_max_below_eleven_samples():
    assert run.tail_value([5, 1, 4, 2, 3] * 4) == (3, 50.0)
    assert run.tail_value([0.3, 0.1, 0.2]) == (0.3, 100.0)
    assert run.tail_value(list(range(11))) == (0, 100.0 / 11)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def _span(job, name, parent, start, end):
    return [job, name, parent, start, end, False, 0]


def test_self_time_subtracts_nested_children():
    trace = [
        _span(0, "cli.job", -1, 0.0, 10.0),
        _span(0, "gossip.evolve", 0, 1.0, 9.0),
        _span(0, "consensus.ssc_gap", 1, 2.0, 5.0),
        _span(0, "states.twirl_matrix", 2, 2.5, 4.5),
        _span(0, "linalg.partial_trace", 1, 6.0, 7.0),
        _span(1, "cli.job", -1, 20.0, 21.0),
    ]
    assert spans.self_times(trace) == pytest.approx([2.0, 4.0, 1.0, 2.0, 1.0, 1.0])
    assert spans.job_self_sums(trace) == pytest.approx({0: 10.0, 1: 1.0})
    stats = spans.layer_stats(trace)
    assert stats["cli.job.calls"] == 2
    assert stats["cli.job.s"] == pytest.approx(11.0)
    assert stats["cli.job.self_s"] == pytest.approx(3.0)
    assert stats["gossip.evolve.self_s"] == pytest.approx(4.0)
    assert stats["gossip.commutant_dimension.calls"] == 0


def test_self_time_counts_overlapping_children_once():
    trace = [_span(0, "cli.job", -1, 0.0, 10.0),
             _span(0, "scenario.write", 0, 1.0, 4.0),
             _span(0, "scenario.write", 0, 3.0, 6.0),
             _span(0, "scenario.write", 0, 9.0, 12.0)]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import qgossip.cli  # noqa: F401  (loads every module)
    import qgossip.consensus
    import qgossip.gossip
    import qgossip.states
    original = qgossip.states.twirl_matrix
    step = qgossip.states.conjugate_by_basis_map
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in (qgossip.states, qgossip.consensus, qgossip.gossip):
            assert mod.twirl_matrix is not original
        assert qgossip.gossip.conjugate_by_basis_map is not step
        assert qgossip.states.conjugate_by_basis_map is step
    finally:
        tracer.uninstall()
    for mod in (qgossip.states, qgossip.consensus, qgossip.gossip):
        assert mod.twirl_matrix is original
    assert qgossip.gossip.conjugate_by_basis_map is step


# ---------------------------------------------------------------------------
# checks catch corrupted outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    sys.path.insert(0, str(ROOT / "src"))
    from qgossip.cli import main
    return JobRunner(main, tmp_path_factory.mktemp("job"))


def _first_job(workload, **where):
    for index in range(100):
        job = workloads.make_job(workload, 5, index)
        if all(job["scenario"]["gossip"].get(k) == v for k, v in where.items()):
            return job
    raise AssertionError("no such job")


@pytest.mark.parametrize("strategy", ["random", "synchronous"])
def test_trajectory_check_fails_on_a_perturbed_z_column(runner, strategy):
    job = _first_job("trajectory", strategy=strategy)
    wall, problems = runner.run(job)
    assert problems == [] and wall > 0
    csv_path = runner.job_dir / "job_trajectory.csv"
    lines = csv_path.read_text().splitlines()
    header = lines[1].split(",")
    row = lines[5].split(",")
    col = header.index("z_2")
    row[col] = repr(float(row[col]) + 1e-8)
    lines[5] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    problems = workloads.check_job(job, runner.job_dir)
    assert any("classical replay" in p for p in problems)


def test_certify_check_fails_on_unit_count_off_by_one(runner):
    job = workloads.make_job("certify", 5, 0)
    assert runner.run(job)[1] == []
    path = runner.job_dir / "job_spectrum.json"
    payload = json.loads(path.read_text())
    assert workloads.check_spectrum(payload, job["scenario"]) == []
    payload["unit_eigenvalue_count"] += 1
    assert workloads.check_spectrum(payload, job["scenario"])
    payload["unit_eigenvalue_count"] -= 1
    payload["fixed_space_dimension"] -= 1
    assert workloads.check_spectrum(payload, job["scenario"])


def test_classify_closed_forms():
    assert workloads.closed_form_verdicts("rhoG:0.3", "z") == (True,) * 4
    assert workloads.closed_form_verdicts("101010", "x") == (True, False, False, False)
    assert workloads.closed_form_verdicts("101010", "z") == (False,) * 4
    assert workloads.closed_form_verdicts("000000", "y") == (True, True, True, False)
    assert workloads.closed_form_verdicts("random:3", "z") is None


def test_classify_and_ensemble_checks_fail_on_wrong_results(runner):
    job = workloads.make_job("classify", 5, 0)  # a random state
    assert runner.run(job)[1] == []
    path = runner.job_dir / "job_classify.json"
    payload = json.loads(path.read_text())
    payload["results"][0]["report"]["ssc_gap"] *= 1.001
    path.write_text(json.dumps(payload))
    assert workloads.check_job(job, runner.job_dir)

    ok = {"num_trials": 20, "successes": 20, "eps": 1e-10,
          "max_final_sq_distance": 1e-20}
    reference = {"ensemble": {"5/0": {"successes": 20, "max_final_sq_distance": 1e-20}}}
    assert workloads.check_ensemble(ok, "5/0", reference) == []
    assert workloads.check_ensemble(dict(ok, successes=19), "5/0", reference)
    assert workloads.check_ensemble(dict(ok, max_final_sq_distance=1e-9), "5/0", reference)


# ---------------------------------------------------------------------------
# job generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_are_deterministic_per_seed_and_differ_across_seeds(workload):
    def jobs(seed):
        return [workloads.make_job(workload, seed, i) for i in range(12)]
    assert jobs(1) == jobs(1)
    assert jobs(1) != jobs(2)
    shapes = [(j["slot"], j["argv"][0]) for j in jobs(1)]
    assert shapes == [(j["slot"], j["argv"][0]) for j in jobs(2)]


def test_generated_graphs_are_connected_with_unit_weight():
    import random
    for m, count in workloads.EDGE_COUNT.items():
        for k in range(50):
            edges, weights = workloads.random_graph(random.Random(k), m)
            assert len(edges) == count == len({tuple(e) for e in edges})
            assert abs(sum(weights) - 1.0) <= 1e-12
            assert workloads.weighted_laplacian_gap(m, edges, weights) > 1e-3


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark emits
# ---------------------------------------------------------------------------

def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    emitted = set(spans.layer_stats([])) | {
        "trace.jobs_per_s_untraced", "trace.jobs_per_s_traced",
        "trace.overhead_frac", "trace.self_sum_gap_frac"}
    assert layer_names <= emitted
    rationale = json.loads((HERE / "rationale.json").read_text())
    for row in rationale["layer_map"]:
        assert set(row["layer_metrics"]) <= layer_names, row
        assert set(row["moves"]) <= {m["name"] for m in spec["end_to_end"]}
        assert set(row["on"]) <= set(workloads.WORKLOADS)


def test_measure_stops_mid_cycle_after_the_overrun(monkeypatch):
    import worker

    class FakeRunner:
        def run(self, job):
            return 0.5, []

    monkeypatch.setattr(worker, "OVERRUN_S", 0.0)
    result = worker.measure(FakeRunner(), lambda: 0.01, "ensemble", 1, seconds=0.0)
    assert result["walls"] == [0.5]
    assert result["ok"] == [True]
    assert result["probe_s"] == [0.01, 0.01]
    assert run.cycle_rates(result["walls"], result["ok"], 3) == [2.0]


def test_cycle_rates_count_passing_jobs_per_cycle_and_the_trailing_part():
    times = [0.5, 0.25, 0.25, 1.0, 1.0, 2.0, 0.5]
    ok = [True, True, False, True, True, True, True]
    assert run.cycle_rates(times, ok, 3) == [2.0, 0.75, 2.0]


# ---------------------------------------------------------------------------
# speed scaling
# ---------------------------------------------------------------------------

def test_scales_are_medians_of_the_probes_around_each_job():
    probes = [1.0, 9.0, 2.0, 3.0, 4.0, 100.0]
    assert speed.job_scales(probes, window=1) == [5.0, 5.5, 2.5, 3.5, 52.0]
    assert speed.job_scales(probes, window=2) == [2.0, 2.5, 3.5, 3.5, 4.0]


def test_scaling_cancels_a_host_slowdown_but_not_a_program_slowdown():
    ref = speed.REFERENCE_PROBE_S
    steady = speed.scaled([0.2] * 4, [ref] * 5)
    host_slow = speed.scaled([0.3] * 4, [1.5 * ref] * 5)
    program_slow = speed.scaled([0.3] * 4, [ref] * 5)
    assert steady == pytest.approx([0.2] * 4)
    assert host_slow == pytest.approx(steady)
    assert program_slow == pytest.approx([0.3] * 4)
    with pytest.raises(ValueError):
        speed.scaled([0.2] * 4, [ref] * 4)  # one probe short


def test_probe_times_a_positive_duration():
    probe = speed.SpeedProbe()
    assert 0.0 < probe() < 1.0
