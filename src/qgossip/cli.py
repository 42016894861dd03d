"""Command-line interface.

Subcommands: classify, evolve, spectrum, correspond, nogo, ensemble.
Exit codes: 0 success, 1 validation error or unreadable/unwritable file,
2 failed certificate or internal consistency fault, 3 resource cap exceeded
or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .classical import correspondence_run
from .consensus import classify, nogo_check
from .errors import (CertificateError, ConsistencyError, ResourceLimitError,
                     ScenarioError, ValidationError)
from .gossip import (ALL_EDGE_STRATEGIES, DISK_TOL, evolve,
                     probability_one_convergence_experiment, spectral_certificate,
                     synchronous_classes)
from .linalg import NetworkShape
from .scenario import (RepeatedRows, RunManifest, Scenario, TOOL_VERSION, load_scenario,
                       load_suite, resolve_out_dir, write_csv, write_json,
                       write_manifest)
from .states import as_observable, named_state


def _edge_label(edge) -> str:
    if edge is None:
        return ""
    return f"{edge[0]}-{edge[1]}"


def _step_labels(edges, all_edges: bool = False) -> list:
    """The ``t, edge`` cells of rows 0..len(edges): the edge applied to reach
    step t, "all" for a step that applies every edge."""
    return [[0, ""]] + [[t, "all" if all_edges else _edge_label(e)]
                        for t, e in enumerate(edges, 1)]


def _write_trajectory(path: Path, record, manifest_name: str):
    m = record.z.shape[1]
    header = (["t", "edge"] + [f"z_{i}" for i in range(1, m + 1)]
              + ["S_expect", "ssc_gap", "smc_defect"])
    values = np.column_stack([record.z, record.s_expect, record.ssc_gap, record.smc_defect])
    labels = _step_labels(record.edges, record.strategy in ALL_EDGE_STRATEGIES)
    write_csv(path, header, labels, values, manifest_name)


def _finish_manifest(out_dir: Path, stem: str, scenario: Scenario, command: str,
                     started: float, termination: str) -> str:
    name = f"{stem}_manifest.json"
    manifest = RunManifest(scenario_hash=scenario.sha256,
                           tool_version=TOOL_VERSION, command=command,
                           seeds=scenario.seeds(),
                           wall_time_s=time.monotonic() - started,
                           termination=termination)
    out_dir.mkdir(parents=True, exist_ok=True)  # only now: a run that fails leaves none
    write_manifest(out_dir / name, manifest)
    return name


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    tol = args.tol
    if args.suite:
        ignored = [f"--{k}" for k in ("state", "sigma", "m", "n") if getattr(args, k) is not None]
        if ignored:
            raise ScenarioError(f"--suite names every state and sigma; drop {', '.join(ignored)}")
        entries = load_suite(args.suite)
    else:
        if not args.state or not args.sigma:
            raise ScenarioError("classify needs --state and --sigma (or --suite)")
        shape = None
        if args.m is not None or args.n is not None:
            if args.m is None or args.n is None:
                raise ScenarioError("--m and --n must be given together")
            shape = NetworkShape(args.m, args.n)
        state = named_state(args.state, shape)
        entries = [(args.state, state, args.sigma, as_observable(args.sigma, state.shape.n))]
    results = [{"state": state_spec, "sigma": sigma_spec,
                "report": asdict(classify(state, obs, tol))}
               for state_spec, state, sigma_spec, obs in entries]

    for item in results:
        r = item["report"]
        flags = " ".join(f"{k}={'yes' if r[k] else 'no'}"
                         for k in ("sigma_ec", "rsc", "ssc", "smc"))
        print(f"{item['state']:>10s} | {flags} | ssc_gap={r['ssc_gap']:.3e} "
              f"smc_defect={r['smc_defect']:.3e}")
    if args.out:
        payload = {"tolerance": tol, "results": results, "tool_version": TOOL_VERSION}
        write_json(Path(args.out), payload)
    return 0


def cmd_evolve(args) -> int:
    started = time.monotonic()
    scenario = load_scenario(args.scenario)
    out_dir = resolve_out_dir(scenario.out_directory, args.out_dir)
    stem = scenario.stem
    record, _ = evolve(scenario.rho0, scenario.graph, scenario.config, scenario.obs)

    manifest_name = _finish_manifest(out_dir, stem, scenario, "evolve",
                                     started, record.termination)
    _write_trajectory(out_dir / f"{stem}_trajectory.csv", record, manifest_name)
    summary = {
        "steps_performed": record.steps,
        "termination": record.termination,
        "strategy": record.strategy,
        "alpha": record.alpha,
        "s_expect_initial": float(record.s_expect[0]),
        "s_expect_final": float(record.s_expect[-1]),
        "final_ssc_gap": float(record.ssc_gap[-1]),
        "final_smc_defect": float(record.smc_defect[-1]),
        "final_distance_to_twirl": float(record.ssc_gap[-1]),
        "tool_version": TOOL_VERSION,
    }
    write_json(out_dir / f"{stem}_summary.json", summary, manifest_name)
    print(f"evolve: {record.steps} steps, final ssc_gap "
          f"{record.ssc_gap[-1]:.3e}, outputs in {out_dir}")
    return 0


def cmd_spectrum(args) -> int:
    started = time.monotonic()
    scenario = load_scenario(args.scenario)
    out_dir = resolve_out_dir(scenario.out_directory, args.out_dir)
    stem = scenario.stem
    alpha = scenario.config.alpha

    graph = scenario.graph
    cert = spectral_certificate(synchronous_classes(graph, alpha), q0=1.0 - alpha)
    dim = cert.block_count  # one block per orbit, one fixed-space basis element per orbit
    if dim != cert.unit_eigenvalue_count:
        raise ConsistencyError(f"fixed space dimension {dim} disagrees with "
                               f"{cert.unit_eigenvalue_count} unit eigenvalues")
    second = cert.second_largest_eigenvalue
    if graph.is_connected():  # the interchange process has the gap of L_q (Caputo et al.)
        expected = 1.0 - alpha * graph.laplacian_gap()
        if second is None or abs(second - expected) > DISK_TOL:
            raise ConsistencyError(f"second-largest eigenvalue {second!r} differs from "
                                   f"1 - alpha lambda_2(L_q) = {expected!r}")
    manifest_name = _finish_manifest(
        out_dir, stem, scenario, "spectrum", started,
        "certificate_passed" if cert.disk_ok else "certificate_failed")
    ev = cert.distinct_eigenvalues
    payload = {
        "alpha": alpha,
        "q0": cert.q0,
        "eigenvalues": RepeatedRows(list(zip(ev.real.tolist(), ev.imag.tolist())),
                                    cert.multiplicities.tolist()),
        "disk_ok": bool(cert.disk_ok),
        "max_disk_violation": float(cert.max_disk_violation),
        "max_imag": float(cert.max_imag),
        "unit_eigenvalue_count": int(cert.unit_eigenvalue_count),
        "spectral_gap": float(cert.spectral_gap),
        "second_largest_eigenvalue": second,
        "fixed_space_dimension": int(dim),
        "tool_version": TOOL_VERSION,
    }
    write_json(out_dir / f"{stem}_spectrum.json", payload, manifest_name)
    print(f"spectrum: {payload['unit_eigenvalue_count']} unit eigenvalues, "
          f"fixed space dimension {dim}, gap {cert.spectral_gap:.6f}")
    if not cert.disk_ok:
        raise CertificateError(
            f"eigenvalue disk violated by {cert.max_disk_violation:.3e}")
    return 0


def cmd_correspond(args) -> int:
    started = time.monotonic()
    scenario = load_scenario(args.scenario)
    out_dir = resolve_out_dir(scenario.out_directory, args.out_dir)
    stem = scenario.stem
    result = correspondence_run(scenario.rho0, scenario.obs, scenario.graph, scenario.config)
    manifest_name = _finish_manifest(out_dir, stem, scenario, "correspond",
                                     started, result.quantum.termination)
    _write_trajectory(out_dir / f"{stem}_trajectory.csv", result.quantum, manifest_name)
    m = scenario.shape.m
    cheader = ["t", "edge"] + [f"x_{i}" for i in range(1, m + 1)] + ["W"]
    cvalues = np.column_stack([result.classical.x[:, :, 0], result.classical.disagreement])
    write_csv(out_dir / f"{stem}_classical.csv", cheader,
              _step_labels(result.classical.edges), cvalues, manifest_name)
    payload = {
        "max_deviation": result.max_deviation,
        "classical_limit_deviation": result.classical_limit_deviation,
        "initial_mean": float(result.quantum.z[0].mean()),
        "steps": result.quantum.steps,
        "tool_version": TOOL_VERSION,
    }
    write_json(out_dir / f"{stem}_correspondence.json", payload, manifest_name)
    print(f"correspond: max quantum/classical deviation {result.max_deviation:.3e}")
    return 0


def cmd_nogo(args) -> int:
    report = nogo_check(args.n)
    payload = asdict(report)
    payload["tool_version"] = TOOL_VERSION
    verdict = "feasible" if report.feasible else "infeasible"
    print(f"nogo: n={report.n} lambda_max={report.lambda_max:.12f} ({verdict})")
    if report.triple_pauli_fixed_dim is not None:
        print(f"nogo: triple-Pauli joint fixed space dimension "
              f"{report.triple_pauli_fixed_dim}")
    if args.out:
        write_json(Path(args.out), payload)
    return 0


def cmd_ensemble(args) -> int:
    started = time.monotonic()
    scenario = load_scenario(args.scenario)
    out_dir = resolve_out_dir(scenario.out_directory, args.out_dir)
    stem = scenario.stem
    seed = scenario.config.seed
    if seed is None:
        raise ScenarioError("gossip.seed: the ensemble experiment needs a seed")
    experiment = probability_one_convergence_experiment(
        scenario.graph, scenario.config.alpha, scenario.rho0,
        eps=args.eps, num_trials=args.trials, horizon=args.horizon, seed=seed)
    manifest_name = _finish_manifest(out_dir, stem, scenario, "ensemble",
                                     started, "completed")
    payload = asdict(experiment)
    payload["tool_version"] = TOOL_VERSION
    write_json(out_dir / f"{stem}_ensemble.json", payload, manifest_name)
    print(f"ensemble: {experiment.successes}/{experiment.num_trials} trials "
          f"within eps={experiment.eps:g} at horizon {experiment.horizon}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def tolerance(text: str) -> float:
    """The type of --tol and --eps: a finite, nonnegative float."""
    value = float(text)  # argparse reports a ValueError as "invalid tolerance value"
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite nonnegative number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at the first call. Each subcommand's
    ``cmd_*`` function is bound into it then, so replacing a ``cmd_*`` later has
    no effect on ``main``."""
    parser = argparse.ArgumentParser(
        prog="qgossip",
        description="Classify, evolve, and certify gossip consensus on "
                    "networks of quantum subsystems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="consensus classification of a state")
    p.add_argument("--state", help="rhoA..rhoG, digit string, or random:<seed>")
    p.add_argument("--sigma", help="x, y, z, identity")
    p.add_argument("--suite", help="JSON suite of {state, sigma} entries")
    p.add_argument("--m", type=int, help="number of subsystems")
    p.add_argument("--n", type=int, help="local dimension")
    p.add_argument("--tol", type=tolerance, default=1e-8,
                   help="classification tolerance (default 1e-8)")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evolve", help="run a gossip trajectory from a scenario")
    p.add_argument("scenario")
    p.add_argument("--out-dir", help="output directory override")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("spectrum", help="spectral certificate of the expected map")
    p.add_argument("scenario")
    p.add_argument("--out-dir", help="output directory override")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("correspond",
                       help="verify quantum/classical gossip correspondence")
    p.add_argument("scenario")
    p.add_argument("--out-dir", help="output directory override")
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("nogo", help="two-observable measurement-consensus no-go")
    p.add_argument("n", type=int, help="local dimension, 2..8")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_nogo)

    p = sub.add_parser("ensemble",
                       help="random-gossip convergence probability experiment")
    p.add_argument("scenario")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--horizon", type=int, default=500)
    p.add_argument("--eps", type=tolerance, default=1e-10)
    p.add_argument("--out-dir", help="output directory override")
    p.set_defaults(func=cmd_ensemble)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if (exc.code or 0) == 0 else 1
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error (resource cap): {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error (resource cap): out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 3
    except (CertificateError, ConsistencyError) as exc:
        print(f"error (certificate): {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ValidationError, ValueError) as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error (file): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
