"""Benchmark-side tracing: spans around dam's layer functions, and the
per-layer metrics computed from them.

A `Tracer` replaces each traced function in the module namespace it is
looked up from (``dam.evaluation.train_som`` is the name `run_single`
calls, ``dam.cli.train_som`` the one `dam train` calls), so the program runs
unmodified. Each span records name, layer, start, end, parent span and a few
counts taken from the call's arguments or result.

`jobs > 1` forks worker processes. A forked worker inherits the tracer and
its open-span stack, so its spans point at the parent's open span; it writes
them to ``<span_dir>/<pid>.jsonl`` whenever its outermost span closes,
because pool workers exit without running exit hooks. `collect` merges those
files with the parent's spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import pickle
import statistics
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from dam.som import SomTrainParams

# Computed per-step cost of the online SOM rule, in floating-point operations:
# winner search 3·K·d (subtract, square, add), codebook update 2·K·d (scale,
# subtract) and about 8·K for the grid neighbourhood weights.
_SOM_STEP_FLOPS_PER_KD = 5
_SOM_STEP_FLOPS_PER_K = 8


def _bound(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _parse_attrs(a, result):
    return {"bytes": len(a["text"])}


def _train_attrs(a, result):
    samples = np.asarray(a["samples"])
    epochs = (a["params"] or SomTrainParams()).epochs
    return {
        "steps": int(samples.shape[0]) * int(epochs),
        "units": int(a["rows"]) * int(a["cols"]),
        "dim": int(samples.shape[1]),
    }


def _bmu_attrs(a, result):
    grid = a["grid"]
    return {
        "vectors": int(np.atleast_2d(a["xs"]).shape[0]),
        "units": int(grid.unit_count),
        "dim": int(grid.dim),
    }


def _preprocess_attrs(a, result):
    action = a["action"]
    key = getattr(action, "id", None)
    if key is None:
        frames = np.ascontiguousarray(action, dtype=np.float64)
        key = hashlib.blake2b(frames.tobytes(), digest_size=16).hexdigest()
    return {"key": str(key)}


def _fit_attrs(a, result):
    probs = np.asarray(result.cluster_class_probs)
    return {"dead_units": int((probs.sum(axis=1) == 0.0).sum())}


def _posterior_attrs(a, result):
    return {"zero_evidence": int(not np.any(result.scores))}


def _protocol_attrs(a, result):
    return {"jobs": max(1, int(a.get("jobs", 1)))}


# (module looked up from, function name, layer, attrs from bound args and result)
WRAPS = (
    ("dam", "parse_action_file", "dataset", _parse_attrs),
    ("dam", "classify_action", "classifier", None),
    ("dam.cli", "main", "cli", None),
    ("dam.cli", "load_canonical_dataset", "dataset", None),
    ("dam.cli", "parse_action_file", "dataset", _parse_attrs),
    ("dam.cli", "cross_validate", "evaluation", _protocol_attrs),
    ("dam.cli", "evaluate_loso", "evaluation", _protocol_attrs),
    ("dam.cli", "load_model", "classifier", None),
    ("dam.cli", "classify_action", "classifier", None),
    ("dam.cli", "preprocess_action", "preprocess", _preprocess_attrs),
    ("dam.cli", "train_som", "som", _train_attrs),
    ("dam.cli", "fit_model", "classifier", _fit_attrs),
    ("dam.dataset", "parse_action_file", "dataset", _parse_attrs),
    ("dam.evaluation", "run_single", "evaluation", None),
    ("dam.evaluation", "preprocess_action", "preprocess", _preprocess_attrs),
    ("dam.evaluation", "train_som", "som", _train_attrs),
    ("dam.evaluation", "fit_model", "classifier", _fit_attrs),
    ("dam.evaluation", "compute_histogram", "descriptor", None),
    ("dam.evaluation", "class_posterior", "classifier", _posterior_attrs),
    ("dam.classifier", "preprocess_action", "preprocess", _preprocess_attrs),
    ("dam.classifier", "bmu_batch", "som", _bmu_attrs),
    ("dam.classifier", "compute_histogram", "descriptor", None),
    ("dam.classifier", "class_posterior", "classifier", _posterior_attrs),
    ("dam.descriptor", "bmu_batch", "som", _bmu_attrs),
)


class Tracer:
    """Span recorder; `install` patches dam's namespaces, `uninstall` restores them."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self.root_pid = self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.depth = 0  # open spans of this process
        self.seq = 0
        self.task_bytes: list[int] = []
        self.task_pickle_s = 0.0
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # --- patching ---------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer, attrs_fn in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, f"{module_name}.{attr}", layer, attrs_fn)
            setattr(module, attr, wrapped)
            self._restore.append((module, attr, original))

        original_submit = ProcessPoolExecutor.submit
        tracer = self

        def submit(pool, fn, /, *args, **kwargs):
            t0 = time.perf_counter()
            size = len(pickle.dumps((fn, args, kwargs), protocol=pickle.HIGHEST_PROTOCOL))
            tracer.task_bytes.append(size)
            tracer.task_pickle_s += time.perf_counter() - t0
            return original_submit(pool, fn, *args, **kwargs)

        ProcessPoolExecutor.submit = submit
        self._restore.append((ProcessPoolExecutor, "submit", original_submit))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, original, name: str, layer: str, attrs_fn):
        tracer = self
        signature = inspect.signature(original) if attrs_fn else None

        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            if os.getpid() != tracer.pid:  # first span in a forked worker
                tracer.pid, tracer.spans, tracer.seq, tracer.depth = os.getpid(), [], 0, 0
            span_id = f"{tracer.pid}:{tracer.seq}"
            tracer.seq += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            tracer.depth += 1
            error = False
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.depth -= 1
                span = {
                    "id": span_id, "parent": parent, "name": name, "layer": layer,
                    "pid": tracer.pid, "start": t0, "end": t1, "error": error,
                }
                if attrs_fn is not None and not error:
                    try:
                        span.update(attrs_fn(_bound(signature, args, kwargs), result))
                    except (TypeError, KeyError, AttributeError):
                        span["attrs_error"] = True  # the traced signature changed
                span["own_s"] = (t0 - t_in) + (time.perf_counter() - t1)
                tracer.spans.append(span)
                if tracer.pid != tracer.root_pid and tracer.depth == 0:
                    tracer._flush()
            return result

        return functools.wraps(original)(traced)

    def _flush(self) -> None:
        with open(self.span_dir / f"{self.pid}.jsonl", "a") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """This process's spans plus every span a forked worker wrote."""
        spans = list(self.spans)
        for path in sorted(self.span_dir.glob("*.jsonl")):
            with open(path) as f:
                spans.extend(json.loads(line) for line in f)
        return spans


# --- Metrics from spans -----------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    Children may run in other processes and overlap each other; the covered
    part is the union of their intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = _union_length([
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        ])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


PER_LAYER_UNITS = {
    "som.train_calls": "count", "som.train_steps": "count", "som.train_s": "s",
    "som.us_per_step": "us", "som.train_flops": "flop",
    "som.bmu_calls": "count", "som.bmu_vectors": "count",
    "som.bmu_vectors_per_call": "count", "som.bmu_s": "s",
    "som.bmu_vectors_per_s": "1/s", "som.bmu_flops": "flop", "som.bmu_bytes": "B",
    "som.self_s": "s",
    "preprocess.calls": "count", "preprocess.s": "s", "preprocess.ms_per_action": "ms",
    "preprocess.useful_ratio": "ratio", "preprocess.self_s": "s",
    "dataset.files_parsed": "count", "dataset.bytes_parsed": "B", "dataset.parse_s": "s",
    "descriptor.histograms": "count", "descriptor.s": "s", "descriptor.self_s": "s",
    "classifier.fit_calls": "count", "classifier.fit_s": "s",
    "classifier.posterior_calls": "count", "classifier.posterior_s": "s",
    "classifier.classify_calls": "count", "classifier.classify_s": "s",
    "classifier.load_model_s": "s", "classifier.dead_units": "count",
    "classifier.zero_evidence": "count",
    "evaluation.runs": "count", "evaluation.run_single_s": "s", "evaluation.self_s": "s",
    "evaluation.task_bytes": "B", "evaluation.worker_busy_share": "share",
    "cli.s": "s", "cli.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s", "trace.wall_s": "s",
}


def layer_metrics(spans: list[dict], tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from the merged spans.

    `preprocess.useful_ratio` counts an action once per user-level call (root
    span): re-preprocessing it within one `dam evaluate` is the waste it shows.

    `som.train_flops`, `som.bmu_flops` (3·n·K·d) and `som.bmu_bytes` (float64
    queries and codebook read once, int64 winners written) are computed from
    array shapes, not measured. `wall_s` is the traced run's timed CLI call.
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def root(s):  # the user-level call a span belongs to
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s["id"]

    by_fn = defaultdict(list)
    layer_self = defaultdict(float)
    for s in spans:
        by_fn[s["name"].rsplit(".", 1)[1]].append(s)
        layer_self[s["layer"]] += selfs[s["id"]]

    def dur(fn):
        return sum(s["end"] - s["start"] for s in by_fn[fn])

    def total(fn, key):
        return sum(s.get(key, 0) for s in by_fn[fn])

    train = by_fn["train_som"]
    steps = total("train_som", "steps")
    bmu = by_fn["bmu_batch"]
    vectors = total("bmu_batch", "vectors")
    pre = by_fn["preprocess_action"]
    protocol = by_fn["cross_validate"] + by_fn["evaluate_loso"]
    capacity = sum((s["end"] - s["start"]) * s.get("jobs", 1) for s in protocol)

    m = {
        "som.train_calls": len(train),
        "som.train_steps": steps,
        "som.train_s": dur("train_som"),
        "som.us_per_step": _ratio(dur("train_som"), steps) * 1e6,
        "som.train_flops": sum(
            s.get("steps", 0) * s.get("units", 0)
            * (_SOM_STEP_FLOPS_PER_KD * s.get("dim", 0) + _SOM_STEP_FLOPS_PER_K)
            for s in train
        ),
        "som.bmu_calls": len(bmu),
        "som.bmu_vectors": vectors,
        "som.bmu_vectors_per_call": _ratio(vectors, len(bmu)),
        "som.bmu_s": dur("bmu_batch"),
        "som.bmu_vectors_per_s": _ratio(vectors, dur("bmu_batch")),
        "som.bmu_flops": sum(3 * s["vectors"] * s["units"] * s["dim"] for s in bmu if "dim" in s),
        "som.bmu_bytes": sum(
            8 * (s["vectors"] * s["dim"] + s["units"] * s["dim"] + s["vectors"])
            for s in bmu if "dim" in s
        ),
        "som.self_s": layer_self["som"],
        "preprocess.calls": len(pre),
        "preprocess.s": dur("preprocess_action"),
        "preprocess.ms_per_action": _ratio(dur("preprocess_action"), len(pre)) * 1e3,
        "preprocess.useful_ratio": _ratio(len({(root(s), s.get("key")) for s in pre}), len(pre)),
        "preprocess.self_s": layer_self["preprocess"],
        "dataset.files_parsed": len(by_fn["parse_action_file"]),
        "dataset.bytes_parsed": total("parse_action_file", "bytes"),
        "dataset.parse_s": dur("parse_action_file"),
        "descriptor.histograms": len(by_fn["compute_histogram"]),
        "descriptor.s": dur("compute_histogram"),
        "descriptor.self_s": layer_self["descriptor"],
        "classifier.fit_calls": len(by_fn["fit_model"]),
        "classifier.fit_s": dur("fit_model"),
        "classifier.posterior_calls": len(by_fn["class_posterior"]),
        "classifier.posterior_s": dur("class_posterior"),
        "classifier.classify_calls": len(by_fn["classify_action"]),
        "classifier.classify_s": dur("classify_action"),
        "classifier.load_model_s": dur("load_model"),
        "classifier.dead_units": total("fit_model", "dead_units"),
        "classifier.zero_evidence": total("class_posterior", "zero_evidence"),
        "evaluation.runs": len(by_fn["run_single"]),
        "evaluation.run_single_s": dur("run_single"),
        "evaluation.self_s": layer_self["evaluation"],
        "evaluation.task_bytes": (
            statistics.fmean(tracer.task_bytes) if tracer.task_bytes else 0.0
        ),
        "evaluation.worker_busy_share": _ratio(dur("run_single"), capacity),
        "cli.s": dur("main"),
        "cli.self_s": layer_self["cli"],
        "trace.spans": len(spans),
        "trace.overhead_s": sum(s["own_s"] for s in spans) + tracer.task_pickle_s,
        "trace.wall_s": wall_s,
    }
    return {k: float(v) for k, v in m.items()}


def layer_shares(spans: list[dict]) -> dict[str, float]:
    """Each layer's self time as a share of all traced busy time.

    Busy time sums over processes, so with worker processes it exceeds the
    wall time; the shares add up to 1 either way.
    """
    selfs = self_times(spans)
    shares = defaultdict(float)
    for s in spans:
        shares[s["layer"]] += selfs[s["id"]]
    busy = sum(shares.values())
    return {layer: round(_ratio(v, busy), 4) for layer, v in sorted(shares.items())}


def stage_numbers(m: dict[str, float]) -> dict[str, float]:
    """The pipeline stage table: one throughput or latency figure per stage."""
    return {
        "preprocess_ms_per_action": m["preprocess.ms_per_action"],
        "som_us_per_step": m["som.us_per_step"],
        "bmu_vectors_per_s": m["som.bmu_vectors_per_s"],
        "fit_model_s": _ratio(m["classifier.fit_s"], m["classifier.fit_calls"]),
        "classify_ms_per_action": _ratio(
            m["classifier.classify_s"], m["classifier.classify_calls"]
        ) * 1e3,
    }
