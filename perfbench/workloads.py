"""Set-up, timed phases and output checks of the benchmark's workloads.

The program is driven only through its public surface: `dam.cli.main`
(evaluate, train, classify) called in-process, and `dam.parse_action_file`
with `dam.classify_action` for the streaming client. Every name is looked up
at call time, so a `spans.Tracer` installed around the timed phase sees it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import dam
import dam.cli
from checks import Checks, check_bmus, check_digests, sha256_bytes, tree_digest, tie_codebook
from probe import HostSpeed
from specs import DEFAULT_SEED, HELDOUT_SEED_OFFSET, SETUP_REPEATS, Corpus, Workload
from spans import Tracer, layer_metrics, layer_shares, stage_numbers

RESULT_CSVS = ("results.csv", "confusion.csv", "probmatrix.csv", "per_subject.csv")
UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "batch_actions_per_s": "1/s"}


def generate(corpus: Corpus, seed: int) -> dam.Dataset:
    make = {
        "directional": dam.make_directional_dataset,
        "ordered": dam.make_ordered_dataset,
    }[corpus.kind]
    return make(
        classes=corpus.classes, subjects=corpus.subjects, instances=corpus.instances,
        raw_frames=corpus.raw_frames, joints=corpus.joints, seed=seed,
    )


def run_cli(argv: list[str], clock=time.perf_counter) -> tuple[int, str, float]:
    """`dam.cli.main(argv)` in-process: exit code, captured stdout, seconds."""
    out = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out):
        code = dam.cli.main(argv)
    return code, out.getvalue(), clock() - t0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# --- Set-up ---------------------------------------------------------------------


def set_up(spec: Workload, seed: int, directory: Path):
    """Write the corpus (and, for classify_stream, the held-out files and model).

    Every file is flushed to disk before returning, so the kernel's delayed
    write-back of the set-up does not land in the timed phase.
    """
    directory.mkdir(parents=True)
    data = generate(spec.corpus, seed)
    written = dam.write_canonical_dataset(data, directory / "data")
    heldout = None
    if spec.heldout is not None:
        heldout = generate(spec.heldout, seed + HELDOUT_SEED_OFFSET)
        written += dam.write_canonical_dataset(heldout, directory / "heldout")
        code, _, _ = run_cli([
            "train", str(directory / "data"), *spec.settings_argv(),
            "--seed", str(seed), "--output", str(directory / "model.json"),
        ])
        if code != 0:
            raise RuntimeError(f"set-up: dam train exited with {code}")
        written.append(directory / "model.json")
    for path in written:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return data, heldout


def _setup_digest(directory: Path) -> str:
    parts = [tree_digest(directory / "data")]
    if (directory / "heldout").is_dir():
        parts.append(tree_digest(directory / "heldout"))
        parts.append(sha256_bytes((directory / "model.json").read_bytes()))
    return sha256_bytes(" ".join(parts).encode())


# --- Timed phases -----------------------------------------------------------------


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def _evaluate(spec: Workload, seed: int, seconds: float, base: Path, checks: Checks,
              clock) -> dict:
    """`dam evaluate`, repeated while another call is expected to end within
    `seconds` (at least once); never cut mid-call. A faster host therefore
    does not add a call and double the run's length."""
    argv = [
        "evaluate", str(base / "data"), "--protocol", spec.protocol,
        *spec.settings_argv(), "--runs", str(spec.runs), "--jobs", str(spec.jobs),
        "--seed", str(seed),
    ]
    times, outs = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        out = base / f"out{len(outs)}"
        code, _, elapsed = run_cli([*argv, "--output-dir", str(out)], clock)
        checks.expect(code == 0, f"dam evaluate exited with {code}")
        times.append(elapsed)
        outs.append(out)

    digests = {name: sha256_bytes((outs[0] / name).read_bytes()) for name in RESULT_CSVS}
    for out in outs[1:]:
        for name in RESULT_CSVS:
            checks.expect(
                sha256_bytes((out / name).read_bytes()) == digests[name],
                f"{name} differs between two identical evaluate calls",
            )

    results = _read_csv(outs[0] / "results.csv")
    expected_rows = spec.corpus.subjects if spec.protocol == "loso" else spec.runs
    checks.expect(
        results[0] == ["run", "window", "clusters", "seed", "accuracy"]
        and len(results) == 1 + expected_rows,
        f"results.csv has {len(results) - 1} rows, expected {expected_rows}",
    )
    accuracies = [float(row[4]) for row in results[1:]]
    checks.expect(all(0.0 <= a <= 1.0 for a in accuracies), "accuracy outside [0, 1]")
    confusion = np.array([[float(v) for v in row[1:]] for row in _read_csv(outs[0] / "confusion.csv")[1:]])
    checks.expect(
        confusion.shape == (spec.corpus.classes, spec.corpus.classes),
        f"confusion.csv has shape {confusion.shape}",
    )
    tests_per_call = round(confusion.sum() * len(accuracies))
    checks.expect(tests_per_call > 0, "no test actions scored")
    if spec.protocol == "loso":  # pooled over folds, as `dam evaluate` reports it
        accuracy = float(np.trace(confusion) / confusion.sum())
    else:
        accuracy = statistics.fmean(accuracies)

    return {
        "digests": digests,
        "raw": _timings(times, times, [tests_per_call] * len(times)),
        "accuracy": accuracy,
    }


def _classify(spec: Workload, seed: int, seconds: float, base: Path, checks: Checks,
              clock) -> dict:
    """Rounds over chunks of `spec.batch_files` held-out files, cycling through
    the chunks for at least `seconds` and at least one pass. Each round runs
    phase A, one closed-loop client with one file per request, then phase B,
    one `dam classify` call over the same chunk. Interleaving spreads both
    phases' samples over the whole timed phase, so a slow stretch of the host
    weighs on both alike and on neither alone."""
    model_path = base / "model.json"
    files = sorted((base / "heldout").glob("*.txt"))
    chunks = [files[i:i + spec.batch_files] for i in range(0, len(files), spec.batch_files)]
    model = dam.load_model(model_path)  # client start-up, not a request

    latencies, calls, sizes, batch, predicted, truth = [], [], [], [], {}, {}
    start = time.perf_counter()
    k = 0
    while k < len(chunks) or time.perf_counter() - start < seconds:
        chunk = chunks[k % len(chunks)]
        first_pass = k < len(chunks)
        for path in chunk:
            t0 = clock()
            try:
                action = dam.parse_action_file(path.read_text())
                label = dam.classify_action(model, action).predicted
            except (ValueError, OSError) as e:
                checks.expect(False, f"request {path.name}: {e}")
            else:
                if first_pass:
                    predicted[action.id], truth[action.id] = str(label), str(action.label)
                checks.expect(
                    predicted.get(action.id) == str(label),
                    f"{action.id}: client predicted {label}, earlier {predicted.get(action.id)}",
                )
            latencies.append(clock() - t0)

        code, out, wall = run_cli(["classify", "--model", str(model_path), *map(str, chunk)],
                                  clock)
        calls.append(wall)
        sizes.append(len(chunk))
        checks.expect(code == 0, f"dam classify exited with {code}")
        lines = [line.split(",") for line in out.splitlines()]
        checks.expect(
            bool(lines) and lines[0][:2] == ["id", "predicted"] and len(lines) == 1 + len(chunk),
            f"dam classify printed {len(lines) - 1} rows for {len(chunk)} files",
        )
        rows = [(row[0], row[1]) for row in lines[1:]]
        checks.expect(
            [ident for ident, _ in rows] == [p.stem for p in chunk],
            "dam classify rows are not in input order",
        )
        for ident, label in rows:
            checks.expect(
                predicted.get(ident) == label,
                f"{ident}: batch predicted {label}, client predicted {predicted.get(ident)}",
            )
        if first_pass:
            batch.extend(rows)
        k += 1

    labels = "\n".join(f"{ident},{label}" for ident, label in batch) + "\n"
    correct = sum(truth.get(ident) == label for ident, label in batch)
    return {
        "digests": {"predicted_labels": sha256_bytes(labels.encode())},
        "raw": _timings(calls, latencies, sizes),
        "accuracy": correct / len(files),
    }


def _timings(calls: list[float], latencies: list[float], actions: list[int]) -> dict:
    """The timing metrics, from the timed CLI calls, the actions each handled,
    and the request latencies."""
    return {
        "call_s": calls,
        "latency_samples": len(latencies),
        "wall_s": statistics.median(calls),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "batch_actions_per_s": statistics.median(n / t for n, t in zip(actions, calls)),
    }


# --- BMU oracle check ---------------------------------------------------------------


def _bmu_checks(spec: Workload, seed: int, data, heldout, base: Path, checks: Checks) -> None:
    """BMUs of a sample of the workload's vectors against the brute-force oracle,
    on a codebook with exact duplicate rows (ties) and, for classify_stream,
    on the trained model's codebook."""
    rng = np.random.default_rng([seed, 0xB3])
    params = dam.PreprocessParams(frames=spec.frames, window=spec.window)
    units = spec.rows * spec.cols

    def vectors(actions, count):
        picked = rng.choice(len(actions), size=min(count, len(actions)), replace=False)
        return np.vstack([dam.preprocess_action(actions[i], params) for i in picked])

    pool = vectors(data.actions, 32)
    queries = vectors((data if heldout is None else heldout).actions, 8)
    codebook, ties = tie_codebook(pool, units, rng)
    check_bmus(checks, dam, codebook, spec.rows, spec.cols, np.vstack([queries, ties]),
               "tie codebook")
    if heldout is not None:
        model = dam.load_model(base / "model.json")
        check_bmus(checks, dam, model.grid.codebook, spec.rows, spec.cols, queries,
                   "model codebook")


# --- One run ------------------------------------------------------------------------


def run(spec: Workload, size: str, seed: int, seconds: float, work: Path,
        trace: bool) -> dict:
    """Set up SETUP_REPEATS times, time the workload once, check its outputs.

    The end-to-end timings are scaled to the host's nominal speed with
    probe.py; the raw ones go to the run's record."""
    checks = Checks()
    setup_s, setup_digests = [], []
    with HostSpeed(periodic=not trace) as setup_speed:
        for i in range(SETUP_REPEATS):
            t0 = setup_speed.clock()
            data, heldout = set_up(spec, seed, work / f"setup{i}")
            setup_s.append(setup_speed.clock() - t0)
            setup_digests.append(_setup_digest(work / f"setup{i}"))
            if i:
                shutil.rmtree(work / f"setup{i}")
    for digest in setup_digests[1:]:
        checks.expect(digest == setup_digests[0], "two set-ups with one seed differ")
    base = work / "setup0"

    tracer = Tracer(work / "spans") if trace else None
    if tracer is not None:
        tracer.install()
    try:
        with HostSpeed(periodic=not trace) as speed:
            timed = (_evaluate if spec.protocol else _classify)(
                spec, seed, seconds, base, checks, speed.clock)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if seed == DEFAULT_SEED:
        check_digests(checks, size, spec.name, timed["digests"])
    _bmu_checks(spec, seed, data, heldout, base, checks)

    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    raw = {"setup_s": statistics.median(setup_s), **timed["raw"]}
    scale = speed.scale()
    fixed = {
        "setup_s": raw["setup_s"] * setup_speed.scale(),
        "wall_s": raw["wall_s"] * scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_p90_ms": raw["latency_p90_ms"] * scale,
        "batch_actions_per_s": raw["batch_actions_per_s"] / scale,
    }
    end_to_end = {
        **{k: (fixed[k], unit) for k, unit in UNITS.items()},
        "accuracy": (timed["accuracy"], "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "success_rate": ((checks.attempted - checks.failed) / checks.attempted, "ratio"),
    }
    outcome = {
        "checks": checks,
        "end_to_end": end_to_end,
        "raw": {**raw, "setup_runs_s": setup_s},
        "probe_s": {"setup": setup_speed.samples, "timed": speed.samples},
        "digests": timed["digests"],
    }
    if tracer is not None:
        spans = tracer.collect()
        metrics = layer_metrics(spans, tracer, timed["raw"]["wall_s"])
        outcome["per_layer"] = metrics
        outcome["stages"] = stage_numbers(metrics)
        outcome["layer_shares"] = layer_shares(spans)
        outcome["unwrapped"] = tracer.missing
        outcome["attrs_errors"] = sum(1 for s in spans if s.get("attrs_error"))
    return outcome
