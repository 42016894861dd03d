"""Job generators and independent output checks for the four workloads.

A job is one ``qgossip`` CLI invocation. ``make_job(workload, seed, index)``
builds it deterministically from the workload seed and the job's position;
the input shape of job ``i`` is fixed by ``CYCLES[workload][i % len(cycle)]``
so every seed runs the same mix of shapes and only the content (graphs,
weights, alpha, states, observables, seeds) varies. ``check_job`` reads the
files the job wrote and returns a list of problems (empty when correct).

The checks use oracles that do not share code with the program:

* trajectory -- replay of the written ``z_i`` columns by classical averaging
  along the written edge column, conservation of ``S_expect`` and monotone
  ``ssc_gap``;
* certify -- closed forms: ``C(m+3, m)`` unit eigenvalues and fixed-space
  dimension (n = 2), largest non-unit eigenvalue ``1 - alpha lambda_2(L_q)``
  (Caputo-Liggett-Richthammer), smallest eigenvalue ``>= 1 - 2 alpha``;
* classify -- closed-form verdicts for ``rhoG:p`` and basis strings, and a
  reference recorded from the program for random states;
* ensemble -- ``successes == trials`` exactly when the worst final distance
  is within ``eps``, and a reference recorded from the program.

The recorded references live in ``reference.json`` (see make_reference.py);
random states and ensemble inputs are drawn from fixed pools so that every
seed's inputs are covered by it.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("trajectory", "ensemble", "certify", "classify")

# One entry per job position; a run measures whole cycles.
CYCLES = {
    # (subcommand, m, strategy)
    "trajectory": [("evolve", 5, "random"), ("correspond", 5, "cyclic"),
                   ("evolve", 4, "synchronous"), ("correspond", 6, "random"),
                   ("evolve", 5, "cyclic"), ("correspond", 5, "random")],
    # m
    "ensemble": [4, 3, 5],
    # m: ten cheap m=4 certificates per m=5 certificate
    "certify": [4] * 10 + [5],
    # state kind
    "classify": ["random", "rhoG", "digits"],
}

# Steps per trajectory job by m, chosen so the shapes cost about the same.
TRAJECTORY_STEPS = {4: 240, 5: 60, 6: 5}
# Trials per ensemble job by m (horizon 400), chosen the same way.
ENSEMBLE_TRIALS = {3: 35, 4: 30, 5: 20}
ENSEMBLE_HORIZON = 400
ENSEMBLE_EPS = 1e-10
# Edge count by m: fixed per shape so per-job cost does not vary by seed.
EDGE_COUNT = {3: 3, 4: 4, 5: 6, 6: 8}
CLASSIFY_M = 6
SIGMAS = ("x", "y", "z")
# Pools covered by reference.json.
CLASSIFY_POOL = range(1000, 1064)
ENSEMBLE_POOL = 32

REPLAY_TOL = 1e-10
CONSERVATION_TOL = 1e-10
GAP_MONOTONE_TOL = 1e-12
SPECTRAL_TOL = 1e-9


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def random_graph(r: random.Random, m: int):
    """Connected graph on sites 1..m with EDGE_COUNT[m] edges and random weights."""
    sites = list(range(1, m + 1))
    r.shuffle(sites)
    edges = {tuple(sorted((sites[i], sites[r.randrange(i)]))) for i in range(1, m)}
    spare = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)
             if (a, b) not in edges]
    edges.update(r.sample(spare, EDGE_COUNT[m] - len(edges)))
    edges = sorted(edges)
    r.shuffle(edges)
    raw = [r.uniform(0.2, 1.0) for _ in edges]
    total = sum(raw)
    return [list(e) for e in edges], [w / total for w in raw]


def _scenario(m, edges, weights, alpha, strategy, steps, seed, state, sigma):
    return {"schema": 1, "shape": {"m": m, "n": 2},
            "graph": {"edges": edges, "weights": weights},
            "gossip": {"alpha": alpha, "strategy": strategy, "steps": steps,
                       "seed": seed},
            "initial_state": state, "sigma": sigma,
            "outputs": {"directory": ".", "stem": "job"}}


def ensemble_pool_entry(m: int, k: int) -> dict:
    """Scenario of ensemble pool entry k at size m (the reference covers it)."""
    r = _rng("ensemble-pool", m, k)
    edges, weights = random_graph(r, m)
    return _scenario(m, edges, weights, round(r.uniform(0.3, 0.7), 6),
                     "random", 1, r.randrange(2 ** 31),
                     f"random:{r.randrange(2 ** 31)}", "z")


def make_job(workload: str, seed: int, index) -> dict:
    """The job at position ``index`` (an int, or "warmup") of a seeded run.

    Returns ``{"workload", "index", "slot", "argv", "scenario"}``: ``argv``
    is the CLI argument list with ``{dir}`` standing for the job directory,
    ``scenario`` the JSON document to write there as ``job.json`` (or None).
    """
    cycle = CYCLES[workload]
    slot = 0 if index == "warmup" else index % len(cycle)
    r = _rng(workload, seed, index)
    job = {"workload": workload, "index": index, "slot": slot, "scenario": None}
    if workload == "trajectory":
        command, m, strategy = cycle[slot]
        edges, weights = random_graph(r, m)
        a, b, c = (round(r.uniform(-1.0, 1.0), 6) for _ in range(3))
        job["scenario"] = _scenario(
            m, edges, weights, round(r.uniform(0.2, 0.8), 6), strategy,
            TRAJECTORY_STEPS[m], r.randrange(2 ** 31),
            f"random:{r.randrange(2 ** 31)}", {"real": [[a, b], [b, c]]})
        job["argv"] = [command, "{dir}/job.json", "--out-dir", "{dir}"]
    elif workload == "ensemble":
        m = cycle[slot]
        job["pool"] = r.randrange(ENSEMBLE_POOL)
        job["scenario"] = ensemble_pool_entry(m, job["pool"])
        job["argv"] = ["ensemble", "{dir}/job.json", "--out-dir", "{dir}",
                       "--trials", str(ENSEMBLE_TRIALS[m]),
                       "--horizon", str(ENSEMBLE_HORIZON),
                       "--eps", repr(ENSEMBLE_EPS)]
    elif workload == "certify":
        m = cycle[slot]
        edges, weights = random_graph(r, m)
        job["scenario"] = _scenario(m, edges, weights,
                                    round(r.uniform(0.2, 0.9), 6), "random",
                                    1, r.randrange(2 ** 31), "0" * m, "z")
        job["argv"] = ["spectrum", "{dir}/job.json", "--out-dir", "{dir}"]
    elif workload == "classify":
        kind = cycle[slot]
        if kind == "random":
            state = f"random:{r.choice(CLASSIFY_POOL)}"
        elif kind == "rhoG":
            state = f"rhoG:{round(r.random(), 6)}"
        else:
            state = "".join(r.choice("01") for _ in range(CLASSIFY_M))
        job["argv"] = ["classify", "--m", str(CLASSIFY_M), "--n", "2",
                       "--state", state, "--sigma", r.choice(SIGMAS),
                       "--out", "{dir}/job_classify.json"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return job


def job_argv(job: dict, job_dir: Path) -> list[str]:
    return [a.replace("{dir}", str(job_dir)) for a in job["argv"]]


def write_inputs(job: dict, job_dir: Path) -> None:
    if job["scenario"] is not None:
        (job_dir / "job.json").write_text(json.dumps(job["scenario"]))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest:"):
        raise ValueError(f"{path.name}: missing manifest line")
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def _columns(header, rows, prefix, m):
    idx = [header.index(f"{prefix}_{i}") for i in range(1, m + 1)]
    return [[float(row[i]) for i in idx] for row in rows]


def classical_step(x, edge_label, alpha, edges, weights):
    """One classical averaging step; ``edge_label`` is "j-k" or "all"."""
    if edge_label == "all":
        out = [(1.0 - alpha) * v for v in x]
        for (j, k), q in zip(edges, weights):
            swapped = list(x)
            swapped[j - 1], swapped[k - 1] = x[k - 1], x[j - 1]
            for i, v in enumerate(swapped):
                out[i] += alpha * q * v
        return out
    j, k = (int(v) for v in edge_label.split("-"))
    out = list(x)
    out[j - 1] = (1.0 - alpha) * x[j - 1] + alpha * x[k - 1]
    out[k - 1] = (1.0 - alpha) * x[k - 1] + alpha * x[j - 1]
    return out


def check_trajectory_csv(path: Path, scenario: dict) -> list[str]:
    """Replay z from the edge column; S_expect conserved; ssc_gap monotone."""
    problems = []
    m = scenario["shape"]["m"]
    alpha = scenario["gossip"]["alpha"]
    strategy = scenario["gossip"]["strategy"]
    edges = [tuple(sorted(e)) for e in scenario["graph"]["edges"]]
    weights = scenario["graph"]["weights"]
    header, rows = _read_csv(path)
    if len(rows) != scenario["gossip"]["steps"] + 1:
        problems.append(f"{path.name}: {len(rows)} rows for "
                        f"{scenario['gossip']['steps']} steps")
    z = _columns(header, rows, "z", m)
    labels = [row[header.index("edge")] for row in rows]
    s_exp = [float(row[header.index("S_expect")]) for row in rows]
    gaps = [float(row[header.index("ssc_gap")]) for row in rows]
    x = z[0]
    worst = 0.0
    for t in range(1, len(rows)):
        label = labels[t]
        if strategy == "synchronous":
            ok = label == "all"
        else:
            pair = tuple(sorted(int(v) for v in label.split("-")))
            ok = (pair == edges[(t - 1) % len(edges)] if strategy == "cyclic"
                  else pair in edges)
        if not ok:
            problems.append(f"{path.name}: step {t} edge {label!r} not allowed "
                            f"by the {strategy} schedule")
            break
        x = classical_step(x, label, alpha, edges, weights)
        worst = max(worst, max(abs(a - b) for a, b in zip(x, z[t])))
    if worst > REPLAY_TOL:
        problems.append(f"{path.name}: z differs from the classical replay by {worst:.3e}")
    drift = max(abs(s - s_exp[0]) for s in s_exp)
    if drift > CONSERVATION_TOL:
        problems.append(f"{path.name}: S_expect drifted by {drift:.3e}")
    mean_dev = max(abs(s - sum(zt) / m) for s, zt in zip(s_exp, z))
    if mean_dev > CONSERVATION_TOL:
        problems.append(f"{path.name}: S_expect differs from mean z by {mean_dev:.3e}")
    rise = max((b - a for a, b in zip(gaps, gaps[1:])), default=0.0)
    if rise > GAP_MONOTONE_TOL:
        problems.append(f"{path.name}: ssc_gap increased by {rise:.3e}")
    return problems


def _check_trajectory(job, job_dir):
    scenario = job["scenario"]
    problems = check_trajectory_csv(job_dir / "job_trajectory.csv", scenario)
    if job["argv"][0] == "evolve":
        summary = json.loads((job_dir / "job_summary.json").read_text())
        if summary["steps_performed"] != scenario["gossip"]["steps"]:
            problems.append("summary: steps_performed differs from the scenario")
    else:
        report = json.loads((job_dir / "job_correspondence.json").read_text())
        if not report["max_deviation"] <= REPLAY_TOL:
            problems.append(f"correspondence: max_deviation {report['max_deviation']:.3e}")
        m = scenario["shape"]["m"]
        qh, qrows = _read_csv(job_dir / "job_trajectory.csv")
        ch, crows = _read_csv(job_dir / "job_classical.csv")
        zq = _columns(qh, qrows, "z", m)
        xc = _columns(ch, crows, "x", m)
        if len(zq) != len(xc) or any(abs(a - b) > REPLAY_TOL
                                     for zr, xr in zip(zq, xc)
                                     for a, b in zip(zr, xr)):
            problems.append("classical.csv: x columns differ from the z columns")
    return problems


def weighted_laplacian_gap(m, edges, weights) -> float:
    """lambda_2 of L_q = sum_e q_e (e_j - e_k)(e_j - e_k)^T."""
    import numpy as np
    lap = np.zeros((m, m))
    for (j, k), q in zip(edges, weights):
        lap[j - 1, j - 1] += q
        lap[k - 1, k - 1] += q
        lap[j - 1, k - 1] -= q
        lap[k - 1, j - 1] -= q
    return float(np.linalg.eigvalsh(lap)[1])


def check_spectrum(payload: dict, scenario: dict) -> list[str]:
    problems = []
    m = scenario["shape"]["m"]
    alpha = scenario["gossip"]["alpha"]
    expected_dim = math.comb(m + 3, m)
    evals = [complex(re, im) for re, im in payload["eigenvalues"]]
    unit = [ev for ev in evals if abs(ev - 1.0) <= SPECTRAL_TOL]
    rest = [ev for ev in evals if abs(ev - 1.0) > SPECTRAL_TOL]
    if len(unit) != expected_dim or payload["unit_eigenvalue_count"] != expected_dim:
        problems.append(f"unit eigenvalues: {len(unit)} listed, "
                        f"{payload['unit_eigenvalue_count']} reported, "
                        f"{expected_dim} expected")
    if payload["fixed_space_dimension"] != expected_dim:
        problems.append(f"fixed_space_dimension {payload['fixed_space_dimension']} "
                        f"!= {expected_dim}")
    if not payload["disk_ok"]:
        problems.append("disk_ok is false")
    if rest:
        lam2 = weighted_laplacian_gap(m, scenario["graph"]["edges"],
                                      scenario["graph"]["weights"])
        top = max(ev.real for ev in rest)
        if abs(top - (1.0 - alpha * lam2)) > SPECTRAL_TOL:
            problems.append(f"largest non-unit eigenvalue {top!r} != "
                            f"1 - alpha*lambda_2 = {1.0 - alpha * lam2!r}")
        low = min(ev.real for ev in evals)
        if low < 1.0 - 2.0 * alpha - SPECTRAL_TOL:
            problems.append(f"smallest eigenvalue {low!r} < 1 - 2 alpha")
    return problems


def _check_certify(job, job_dir):
    payload = json.loads((job_dir / "job_spectrum.json").read_text())
    return check_spectrum(payload, job["scenario"])


def closed_form_verdicts(state: str, sigma: str):
    """Verdicts (sigma_ec, rsc, ssc, smc) for rhoG:p and basis strings, else None."""
    if state.startswith("rhoG"):
        return (True, True, True, sigma == "z")
    if state.isdigit():
        uniform = len(set(state)) == 1
        return (uniform or sigma != "z", uniform, uniform, uniform and sigma == "z")
    return None


def _close(got, want, rtol=1e-8, atol=1e-12) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def check_classify(payload: dict, state: str, sigma: str, reference: dict) -> list[str]:
    report = payload["results"][0]["report"]
    got = (report["sigma_ec"], report["rsc"], report["ssc"], report["smc"])
    want = closed_form_verdicts(state, sigma)
    if want is None:
        ref = reference["classify"].get(f"{state}/{sigma}")
        if ref is None:
            return [f"no reference for {state}/{sigma}"]
        want = tuple(ref["verdicts"])
        for key, value in ref["gaps"].items():
            if not _close(report[key], value):
                return [f"{state}/{sigma}: {key} {report[key]!r} != reference {value!r}"]
    if got != want:
        return [f"{state}/{sigma}: verdicts {got} != expected {want}"]
    return []


def _check_classify(job, job_dir):
    payload = json.loads((job_dir / "job_classify.json").read_text())
    argv = job["argv"]
    state = argv[argv.index("--state") + 1]
    sigma = argv[argv.index("--sigma") + 1]
    return check_classify(payload, state, sigma, _reference())


def check_ensemble(payload: dict, key: str, reference: dict) -> list[str]:
    problems = []
    trials = payload["num_trials"]
    converged = payload["max_final_sq_distance"] <= payload["eps"]
    if (payload["successes"] == trials) != converged:
        problems.append(f"successes {payload['successes']}/{trials} inconsistent "
                        f"with max_final_sq_distance {payload['max_final_sq_distance']!r}")
    ref = reference["ensemble"].get(key)
    if ref is None:
        problems.append(f"no reference for {key}")
    else:
        if payload["successes"] != ref["successes"]:
            problems.append(f"successes {payload['successes']} != reference "
                            f"{ref['successes']}")
        if not _close(payload["max_final_sq_distance"], ref["max_final_sq_distance"],
                      rtol=1e-6, atol=1e-22):
            problems.append(f"max_final_sq_distance {payload['max_final_sq_distance']!r} "
                            f"!= reference {ref['max_final_sq_distance']!r}")
    return problems


def _check_ensemble(job, job_dir):
    payload = json.loads((job_dir / "job_ensemble.json").read_text())
    return check_ensemble(payload, f"{job['scenario']['shape']['m']}/{job['pool']}",
                          _reference())


@functools.cache
def _reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


CHECKS = {"trajectory": _check_trajectory, "certify": _check_certify,
          "classify": _check_classify, "ensemble": _check_ensemble}


def check_job(job: dict, job_dir: Path) -> list[str]:
    """Problems with a finished job's outputs; empty when they are correct."""
    try:
        return CHECKS[job["workload"]](job, job_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
