#!/usr/bin/env python3
"""Record the benchmark's committed reference outputs at the default seed.

Run from the root of a checkout:

    python3 perfbench/record.py

It runs every workload untraced and traced at the paper size, and untraced
at the smoke size, then writes

* perfbench/stages.json: the stage table (preprocess ms/action, SOM µs per
  online step, BMU vectors/s, `fit_model` s, classify ms/action), each
  layer's share of traced busy time, and the tracing overhead of each
  workload against its untraced `wall_s` (raw, not scaled for host speed);
* perfbench/digests.json: SHA-256 digests of the result CSVs and predicted
  labels, for outputs that have none recorded yet. A recorded digest is never
  replaced: outputs at a fixed seed must stay byte-identical, so changing one
  is a deliberate edit of that file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import specs
from checks import DIGESTS_FILE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGES_FILE = HERE / "stages.json"

# Which workload's traced run supplies each stage figure.
STAGE_SOURCES = {
    "preprocess_ms_per_action": "cv_paper",
    "som_us_per_step": "cv_paper",
    "bmu_vectors_per_s": "cv_paper",
    "fit_model_s": "cv_paper",
    "classify_ms_per_action": "classify_stream",
}


def run(workload: str, size: str, trace: int, seconds: float) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", size,
        "--seed", str(specs.DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} failed:\n{done.stderr}")
    record = json.loads(specs.result_path(workload, size, specs.DEFAULT_SEED, trace).read_text())
    if record["failed"]:
        sys.exit(f"{workload} ({size}, trace {trace}) failed checks: {record['failures']}")
    print(f"{workload} {size} trace={trace}: wall_s {record['end_to_end']['wall_s']:.3f}",
          flush=True)
    return record


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    digests = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {}
    workloads = {}
    environment = None
    for name in specs.WORKLOADS:
        plain = run(name, "paper", 0, seconds)
        traced = run(name, "paper", 1, seconds)
        environment = environment or plain["environment"]
        # Raw walls: the traced run probes the host only at the start and end
        # of its timed phase, too few probes to scale its timings by.
        untraced_wall = plain["raw"]["wall_s"]
        traced_wall = traced["raw"]["wall_s"]
        workloads[name] = {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "tracing_overhead_share": traced_wall / untraced_wall - 1.0,
            "in_wrapper_overhead_s": traced["metrics"]["trace.overhead_s"]["value"],
            "end_to_end": plain["end_to_end"],
            "layer_shares": traced["layer_shares"],
            "stages": traced["stages"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        smoke = run(name, "smoke", 0, 1)
        for size, record in (("paper", plain), ("smoke", smoke)):
            recorded = digests.setdefault(size, {}).setdefault(name, {})
            for output, digest in record["digests"].items():
                recorded.setdefault(output, digest)

    environment = {k: environment[k] for k in (
        "nproc", "python", "numpy", "scipy", "openblas", "git_commit", "machine")}
    stages = {
        "seed": specs.DEFAULT_SEED,
        "run_seconds": seconds,
        "environment": environment,
        "stages": {
            stage: workloads[source]["stages"][stage]
            for stage, source in STAGE_SOURCES.items()
        },
        "stage_sources": STAGE_SOURCES,
        "workloads": workloads,
    }
    STAGES_FILE.write_text(json.dumps(stages, indent=1, sort_keys=True) + "\n")
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {STAGES_FILE.relative_to(ROOT)} and {DIGESTS_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
