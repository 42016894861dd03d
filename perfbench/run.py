"""qgossip benchmark: time the qgossip CLI subcommands end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: trajectory, ensemble, certify, classify, or ``all`` (each in turn).
Run it from the repository root; it imports qgossip from ``src/``.

Each workload runs in fresh worker processes, one at a time (worker.py). With
``--trace 0`` six probe workers measure set-up time and exit, then a seventh
measures set-up and runs the timed closed loop. Every time below is a wall
time scaled by the speed probe timed next to it (speed.py), which takes the
shared host's drifting speed out of the figures; the raw wall times are kept
in the result file. The end-to-end metrics are

* ``setup_s``      median over the seven workers of the time from process
                   start to the end of one untimed warm-up job;
* ``jobs_per_s``   median over whole job cycles of the jobs passing their
                   checks per second of job time in the cycle;
* ``job_s_p50``    median time of a job;
* ``job_s_tail``   job time at the highest percentile with at least ten
                   samples beyond it (the percentile is printed alongside);
* ``peak_rss_mb``  peak resident memory of the measuring worker.

``failed_frac`` (jobs failed over jobs attempted) is printed and stored, and
the last line carries ``attempted`` and ``failed``. With ``--trace 1`` one
worker runs a fixed job list untraced and traced and the metrics are the
per-layer ``<module>.<function>.<stat>`` totals of the traced jobs.

The last line of standard output is one JSON object; the full result, with
the environment block, is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import CYCLES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trajectory", "ensemble", "certify", "classify")
SETUP_RUNS = 7
TAIL_BEYOND = 10
DEADLINE_S = 170.0
WAITING_NOTE = ("no layer waits: the program is single-threaded apart from "
                "BLAS and has no queues")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_value(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ``beyond`` samples above.

    With no more than ``beyond`` samples no such percentile exists and the
    maximum is returned at percentile 100.
    """
    xs = sorted(values)
    if len(xs) <= beyond:
        return xs[-1], 100.0
    k = len(xs) - beyond - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def cycle_rates(times, ok, cycle: int) -> list[float]:
    """Jobs passing per second of job time in each cycle (a trailing part counts)."""
    return [sum(ok[i:i + cycle]) / sum(times[i:i + cycle])
            for i in range(0, len(times), cycle)]


def scaled_setup(worker: dict) -> float:
    return worker["setup_s"] * speed.REFERENCE_PROBE_S / statistics.median(
        worker["setup_probe_s"])


def spawn(workload, seed, mode, seconds, out: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--t0", repr(t0), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} {mode} worker passed the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} worker exited with {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def run_workload(workload, seed, seconds, trace, deadline) -> dict:
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    scratch = results / f"{stem}-worker.json"
    spec = load_spec()
    if trace:
        r = spawn(workload, seed, "trace", seconds, scratch, deadline)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": r["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
        extra = {"all_layer_stats": r["metrics"], "trace_jobs": r["jobs"],
                 "untraced_walls": r["walls"], "traced_walls": r["traced_walls"],
                 "span_count": r["spans"], "spans_file": r["spans_file"]}
    else:
        probes = []
        while len(probes) < SETUP_RUNS - 1:  # a failing warm-up ends probing
            probes.append(spawn(workload, seed, "probe", seconds, scratch, deadline))
            if probes[-1]["warmup_failures"]:
                break
        r = spawn(workload, seed, "measure", seconds, scratch, deadline)
        workers = probes + [r]
        setups = [scaled_setup(w) for w in workers]
        r["warmup_failures"] += [f for p in probes for f in p["warmup_failures"]]
        r["attempted"] = len(r["walls"]) + len(probes)
        times = speed.scaled(r["walls"], r["probe_s"])
        rates = cycle_rates(times, r["ok"], len(CYCLES[workload]))
        tail, pct = tail_value(times)
        values = {"setup_s": statistics.median(setups),
                  "jobs_per_s": statistics.median(rates),
                  "job_s_p50": statistics.median(times),
                  "job_s_tail": tail,
                  "peak_rss_mb": r["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        metrics["job_s_tail"]["percentile"] = pct
        extra = {"setup_s_samples": setups, "job_times": times,
                 "cycle_jobs_per_s": rates, "timed_phase_s": r["phase_s"],
                 "raw": {"setup_wall_s": [w["setup_s"] for w in workers],
                         "setup_probe_s": [w["setup_probe_s"] for w in workers],
                         "job_walls": r["walls"], "probe_s": r["probe_s"],
                         "job_wall_p50": statistics.median(r["walls"]),
                         "reference_probe_s": speed.REFERENCE_PROBE_S}}
    attempted = r["attempted"] + 1  # the measuring worker's warm-up job
    failures = r["warmup_failures"] + r["failures"]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "environment": r["environment"],
            "attempted": attempted, "failed": len(failures),
            "failed_frac": len(failures) / attempted, "failures": failures,
            "samples": len(r["walls"]), "metrics": metrics,
            "waiting": WAITING_NOTE, **extra, "result_file": str(
                (results / f"{stem}.json").relative_to(ROOT))}


def report(result: dict) -> None:
    """Human-readable lines (everything but the last output line)."""
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        note = ""
        if "percentile" in entry:
            note = f"  (p{entry['percentile']:.1f})"
        print(f"{name:>10s}  {metric:<40s} {entry['value']:>14.6g} {entry['unit']}{note}")
    print(f"{name:>10s}  {'failed_frac':<40s} {result['failed_frac']:>14.6g} ratio"
          f"  ({result['failed']}/{result['attempted']} jobs, n={result['samples']} timed)")
    if result["trace"]:
        print(f"{name:>10s}  waiting: {WAITING_NOTE}")
    else:
        raw = result["raw"]
        print(f"{name:>10s}  unscaled job wall p50 {raw['job_wall_p50']:.6g} s; probe median "
              f"{statistics.median(raw['probe_s']):.6g} s (reference "
              f"{raw['reference_probe_s']:g} s)")
    for failure in result["failures"][:10]:
        print(f"{name:>10s}  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qgossip" / "cli.py").is_file():
        print(f"error: no qgossip source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = [run_workload(w, args.seed, seconds, args.trace, deadline)
                   for w in names]
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        (ROOT / result["result_file"]).write_text(json.dumps(result, indent=1) + "\n")
        report(result)
    if len(results) == 1:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v["value"], "unit": v["unit"]}
                   for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
