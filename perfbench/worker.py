"""One workload process of the qgossip benchmark (started by run.py).

It imports ``qgossip.cli`` from the checkout's ``src``, runs one untimed
warm-up job, and then, by ``--mode``:

* ``probe``   -- stops; the result is only the set-up time;
* ``measure`` -- runs jobs in a closed loop with one client (each job starts
  after the previous one finished and was checked) for whole job cycles until
  ``--seconds`` have passed, timing the speed probe (speed.py) before every
  job and after the last;
* ``trace``   -- runs a fixed job list, each job once untraced and once with
  span tracing, alternating which goes first.

Set-up time counts from ``--t0``, a ``time.monotonic()`` reading the parent
took just before starting this process; every mode then times the speed
probe SETUP_PROBES times, so that run.py can scale set-up time like job time. The result is written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, job_self_sums, layer_stats
from speed import SpeedProbe
from workloads import CYCLES, check_job, job_argv, make_job, write_inputs

JOB_CAP_S = 15.0       # a job running longer fails
OVERRUN_S = 30.0       # stop mid-cycle this long after --seconds
SETUP_PROBES = 5       # probe timings after set-up (their median scales it)
TRACE_CYCLES = {"trajectory": 1, "ensemble": 2, "certify": 1, "classify": 4}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class JobTimeout(BaseException):
    """Raised by the SIGALRM handler when a job exceeds JOB_CAP_S."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class JobRunner:
    """Runs one job at a time in ``job_dir`` and checks its outputs."""

    def __init__(self, main, job_dir: Path):
        self.main = main
        self.job_dir = job_dir
        job_dir.mkdir(parents=True, exist_ok=True)
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, job: dict, main=None) -> tuple[float, list[str]]:
        """Returns (wall seconds of the CLI call, problems)."""
        for stale in self.job_dir.iterdir():
            stale.unlink()
        write_inputs(job, self.job_dir)
        argv = job_argv(job, self.job_dir)
        call = main or self.main
        captured = io.StringIO()
        problems = []
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = call(argv)
            if code != 0:
                tail = captured.getvalue().strip().splitlines()[-1:]
                problems.append(f"exit code {code}: {' '.join(tail)}")
        except JobTimeout:
            problems.append(f"exceeded the {JOB_CAP_S:g} s job cap")
        except Exception as exc:  # a raising job is a failed job
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problems.append(f"raised {type(exc).__name__}: {exc} "
                            f"({Path(where.filename).name}:{where.lineno})")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        if not problems:
            problems = check_job(job, self.job_dir)
        return wall, problems


def _failure(job, problems) -> str:
    return f"job {job['index']} ({' '.join(job['argv'])}): {'; '.join(problems)}"


def measure(runner, probe, workload, seed, seconds) -> dict:
    """Whole cycles until ``seconds`` have passed, with a probe around each job."""
    cycle = len(CYCLES[workload])
    walls, ok, failures = [], [], []
    probes = [probe()]
    start = time.monotonic()
    index = 0
    while True:
        job = make_job(workload, seed, index)
        wall, problems = runner.run(job)
        probes.append(probe())
        walls.append(wall)
        ok.append(not problems)
        if problems:
            failures.append(_failure(job, problems))
        index += 1
        elapsed = time.monotonic() - start
        if index % cycle == 0 and elapsed >= seconds:
            break
        if elapsed >= seconds + OVERRUN_S:
            break
    return {"walls": walls, "ok": ok, "probe_s": probes, "failures": failures,
            "phase_s": elapsed}


def trace(runner, main, workload, seed, spans_path: Path) -> dict:
    tracer = Tracer()
    traced_main = tracer.wrap("cli.job", main)
    count = TRACE_CYCLES[workload] * len(CYCLES[workload])
    plain, traced, failures = [], [], []
    for index in range(count):
        job = make_job(workload, seed, index)
        for traced_run in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_run:
                tracer.job = index
                tracer.install()
                try:
                    wall, problems = runner.run(job, traced_main)
                finally:
                    tracer.uninstall()
                traced.append(wall)
            else:
                wall, problems = runner.run(job)
                plain.append(wall)
            if problems:
                failures.append(_failure(job, problems))
    tracer.dump(spans_path)
    self_sums = job_self_sums(tracer.spans)
    gap = max(abs(self_sums.get(i, 0.0) - w) / w for i, w in enumerate(traced))
    metrics = layer_stats(tracer.spans)
    metrics["trace.jobs_per_s_untraced"] = count / sum(plain)
    metrics["trace.jobs_per_s_traced"] = count / sum(traced)
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    metrics["trace.self_sum_gap_frac"] = gap
    return {"metrics": metrics, "jobs": count, "walls": plain,
            "traced_walls": traced, "failures": failures,
            "attempted": 2 * count, "spans": len(tracer.spans)}


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict form
        pass
    config = blas.get("openblas configuration", "")
    max_threads = re.search(r"MAX_THREADS=(\d+)", config)
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": _git_commit(root),
        "workload": workload, "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "max_threads": int(max_threads.group(1)) if max_threads else None},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import qgossip.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"qgossip imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    job_dir = root / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    runner = JobRunner(cli.main, job_dir)
    try:
        warmup = make_job(args.workload, args.seed, "warmup")
        _, problems = runner.run(warmup)
        setup_s = time.monotonic() - args.t0
        probe = SpeedProbe()
        probe()  # untimed: the first call starts the BLAS threads
        result = {"setup_s": setup_s,
                  "setup_probe_s": [probe() for _ in range(SETUP_PROBES)],
                  "warmup_failures": [_failure(warmup, problems)] if problems else []}
        if args.mode == "measure":
            result.update(measure(runner, probe, args.workload, args.seed, args.seconds))
        elif args.mode == "trace":
            spans_path = Path(args.out).with_name(Path(args.out).stem + "-spans.json")
            result.update(trace(runner, cli.main, args.workload, args.seed, spans_path))
            result["spans_file"] = str(spans_path.relative_to(root))
        if args.mode != "probe":
            result["environment"] = environment(root, args.workload, args.seed)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
