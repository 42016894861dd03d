"""Record reference.json: the program's answers on the benchmark's input pools.

    python3 perfbench/make_reference.py

Covers every random classify state (``CLASSIFY_POOL`` x sigma) and every
ensemble pool entry at each ensemble size. The benchmark compares later
outputs against it, so re-record it only when a change of results is
intended, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from workloads import (CLASSIFY_M, CLASSIFY_POOL, CYCLES, ENSEMBLE_EPS,
                       ENSEMBLE_HORIZON, ENSEMBLE_POOL, ENSEMBLE_TRIALS,
                       REFERENCE_PATH, SIGMAS, ensemble_pool_entry)

ROOT = Path(__file__).resolve().parent.parent
GAP_KEYS = ("sigma_ec_gap", "rsc_gap", "ssc_gap", "smc_defect")


def _run(main, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"qgossip {' '.join(argv)} exited with {code}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qgossip.cli import main as cli_main

    reference = {"classify": {}, "ensemble": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out.json"
        for k in CLASSIFY_POOL:
            for sigma in SIGMAS:
                state = f"random:{k}"
                _run(cli_main, ["classify", "--m", str(CLASSIFY_M), "--n", "2",
                                "--state", state, "--sigma", sigma, "--out", str(out)])
                report = json.loads(out.read_text())["results"][0]["report"]
                reference["classify"][f"{state}/{sigma}"] = {
                    "verdicts": [report[k] for k in ("sigma_ec", "rsc", "ssc", "smc")],
                    "gaps": {key: report[key] for key in GAP_KEYS}}
        scenario = Path(tmp) / "job.json"
        for m in sorted(set(CYCLES["ensemble"])):
            for k in range(ENSEMBLE_POOL):
                scenario.write_text(json.dumps(ensemble_pool_entry(m, k)))
                _run(cli_main, ["ensemble", str(scenario), "--out-dir", tmp,
                                "--trials", str(ENSEMBLE_TRIALS[m]),
                                "--horizon", str(ENSEMBLE_HORIZON),
                                "--eps", repr(ENSEMBLE_EPS)])
                result = json.loads((Path(tmp) / "job_ensemble.json").read_text())
                reference["ensemble"][f"{m}/{k}"] = {
                    key: result[key] for key in ("successes", "max_final_sq_distance")}
    sections = [f' "{name}": {{\n' + ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(entries.items())) + "\n }"
        for name, entries in sorted(reference.items())]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
