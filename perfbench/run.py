#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the dam pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cv_paper --seed 0 --seconds 5 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a traced run (see perfbench/README.md). `--size smoke` runs the tiny
shapes the benchmark's own tests use. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. The
full record of a run, with the machine and library versions, is written to
.perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    p.add_argument("--seed", type=int, default=specs.DEFAULT_SEED,
                   help="workload seed: the same seed makes the same inputs")
    p.add_argument("--seconds", type=float, default=5.0,
                   help="minimum length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: trace the layers and print the per-layer metrics")
    p.add_argument("--size", choices=specs.SIZES, default="paper")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _openblas() -> list[dict]:
    """Config string and thread count of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    entry["config"] = config().decode().strip()
                    entry["threads"] = threads()
        found.append(entry)
    return found


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, spec, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = _openblas()
    threads = max([b.get("threads", blas_threads) for b in blas] or [blas_threads])
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "jobs": spec.jobs,
        "blas_threads": threads,
        "compute_threads": spec.jobs * threads,
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dam" / "__init__.py").is_file():
        print(f"error: no dam package at {SRC / 'dam'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = specs.SPECS[args.size][args.workload]

    # jobs worker processes times BLAS threads each stays within nproc. This
    # must happen before numpy is first imported.
    blas_threads = max(1, nproc() // spec.jobs)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))
    import dam

    if Path(dam.__file__).resolve().parent != (SRC / "dam").resolve():
        print(f"error: imported dam from {dam.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    run_name = f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = specs.WORK_DIR / run_name
    work.mkdir(parents=True)
    try:
        outcome = workloads.run(spec, args.size, args.seed, args.seconds, work,
                                trace=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = outcome["checks"]
    env = environment(args, spec, blas_threads)
    if args.trace:
        metrics = {k: {"value": v, "unit": spans.PER_LAYER_UNITS[k]}
                   for k, v in outcome["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in outcome["end_to_end"].items()}

    record = {
        "environment": env,
        "metrics": metrics,
        "end_to_end": {k: v for k, (v, _) in outcome["end_to_end"].items()},
        "error_rate": checks.failed / checks.attempted,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        **{k: outcome[k] for k in outcome if k not in ("checks", "end_to_end", "per_layer")},
    }
    path = specs.result_path(args.workload, args.size, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for message in checks.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload} ({args.size}, seed {args.seed}): "
          f"error_rate {record['error_rate']:.6g} ({checks.failed} of {checks.attempted})")
    for key, m in metrics.items():
        print(f"#   {key:32s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print("# raw, before the host-speed correction (see perfbench/probe.py):")
        for key in workloads.UNITS:
            print(f"#   {key:32s} {outcome['raw'][key]:>16.6g} {metrics[key]['unit']}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # String hashing is seeded afresh in every process, and that alone moves
    # the pipeline's speed by about 5% from one run to the next; one fixed
    # seed makes runs comparable. exec keeps the process and its pid.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
