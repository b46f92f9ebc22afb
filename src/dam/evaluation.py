"""Cross-validated experiment harness with CSV emission.

A run trains the codebook on the training half only, estimates class
probabilities (`_fit`, which also fits `dam train`'s model), and scores the
held-out half with one winner search. `_run` runs it as a (config, train
indices, test indices, SOM seed, run index) task on a window table:
`run_single` on one table of its two halves, and `cross_validate`,
`evaluate_loso`, `parameter_sweep` and `dam evaluate` through one `_evaluate`
call each, which hands all their runs to one `_run_tasks` call, so `dam
evaluate --exclusions both` runs with and without exclusions as one pass.
There is one window table per distinct preprocessing config (`window_table`:
action i owns rows [i w, (i + 1) w), w = wdf_count, of WDFs, windowed
direction frames), which one pass over a stream of actions fills: each
action is preprocessed into its rows of every table as it arrives, and only
a frame-free record of it (id, subject, label, joint count) is kept. The CLI
streams each file from the loader, so it holds one action's frames at a
time; the library functions stream the caller's Dataset. A run reads its
halves in place, as arrays of row indices of a table: `train_som`, the fit
(`table_class_probabilities`) and the scores (`posteriors`) gather one
cache-sized block at a time, so no run copies its windows. A sweep holds the
tables of all its windows at once. Tasks run in a loop or on one pool of
worker processes, each running OpenBLAS on its share of the usable CPUs.
Per-run seeds are derived from the master seed, so every result is
reproducible bit-for-bit whatever the number of workers.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import _jsonin, _native
from .classifier import ClassModel, _per_row, posteriors, table_class_probabilities
from .dataset import Dataset, class_order, filter_action_set, split_cross_subject, splits_loso
from .preprocess import PreprocessParams, preprocess_action
from .som import SomTrainParams, _usable_cpus, train_som

logger = logging.getLogger(__name__)

CROSS_SUBJECT = "cross_subject_half"
LOSO = "loso"


def derive_seed(master: int, *key: int) -> int:
    """Stable per-run seed: hash of the master seed and run coordinates."""
    ss = np.random.SeedSequence([int(master), *(int(k) for k in key)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: preprocessing knobs, grid shape, SOM schedule, protocol size."""

    preprocess: PreprocessParams
    rows: int
    cols: int
    som: SomTrainParams = SomTrainParams()
    runs: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        _jsonin.check_fields(self)
        if self.rows < 1 or self.cols < 1:
            raise ValueError(
                f"grid must be at least 1x1 in rows x cols, got {self.rows}x{self.cols}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def clusters(self) -> int:
        return self.rows * self.cols


@dataclass(eq=False)
class RunResult:
    """Outcome of one train/test execution."""

    run_index: int
    seed: int
    classes: tuple
    accuracy: float
    confusion: np.ndarray  # (C, C) ints, rows = true class
    prob_matrix: np.ndarray  # (C, C) mean normalized scores, rows = true class
    subject_accuracy: dict
    train_subjects: tuple
    test_subjects: tuple
    model: ClassModel

    @property
    def test_count(self) -> int:
        return int(self.confusion.sum())

    @property
    def correct_count(self) -> int:
        return int(np.trace(self.confusion))


@dataclass(eq=False)
class AggregateResult:
    """Runs of one protocol reduced to means; order of `run_results` is fixed."""

    protocol: str
    classes: tuple
    run_results: list[RunResult]
    mean_accuracy: float
    std_accuracy: float
    mean_confusion: np.ndarray
    mean_prob_matrix: np.ndarray
    subject_accuracy: dict


# An action less its frames: all that splits, filters and runs read of it.
_Record = namedtuple("_Record", "id subject label num_joints")


def window_table(actions: tuple, params) -> tuple[Dataset, dict]:
    """One pass over the (count, (name, action) pairs) stream `actions`: the
    Dataset of their frame-free records, and a float64 table per distinct
    PreprocessParams p of `params`, where action i owns rows [i w, (i + 1) w),
    w = ``p.wdf_count``, of its `preprocess_action` output. Each table is
    allocated once for `count` actions, an upper bound on those the stream
    yields, and cut to the rows written, so an action's frames can go once
    its rows are written.
    An error names the action: one beyond `count`, one whose joint count is
    not the first's, or one that preprocessing refuses."""
    count, actions = actions
    records, tables = [], {}
    for name, action in actions:
        if not records:
            joints = action.num_joints
            tables = {p: np.empty((count * p.wdf_count, p.feature_dim(joints))) for p in params}
        try:
            if len(records) == count:
                raise ValueError(f"the stream yields more than the {count} actions it counted")
            if action.num_joints != joints:
                raise ValueError(f"{action.num_joints} joints, the first action has {joints}")
            for p, table in tables.items():
                first = len(records) * p.wdf_count
                table[first:first + p.wdf_count] = preprocess_action(action, p)
        except ValueError as e:
            raise ValueError(f"{name}: {e}") from None
        records.append(_Record(action.id, action.subject, action.label, action.num_joints))
    for p, table in tables.items():
        table.resize((len(records) * p.wdf_count, table.shape[1]), refcheck=False)
    return Dataset(records), tables


def _named(dataset: Dataset) -> tuple:
    """A caller's dataset as `window_table` reads it, each action named by its id."""
    return len(dataset), ((f"action {a.id!r}", a) for a in dataset)


def run_single(train: Dataset, test: Dataset, cfg: ExperimentConfig,
               som_seed: int | None = None, run_index: int = 0) -> RunResult:
    """Train on `train` only (no test leakage anywhere) and score `test`: one
    `window_table` holds both halves, train's actions first, and `_run` reads
    each half's rows of it in place. An action id in both halves is refused."""
    overlap = set(train.subject_set) & set(test.subject_set)
    if overlap:
        raise ValueError(f"train and test share subjects {sorted(overlap)}")
    if train.joint_count != test.joint_count:
        raise ValueError(f"joint count mismatch: train has {train.joint_count}, "
                         f"test has {test.joint_count}")
    n = len(train)
    return _run((cfg, range(n), range(n, n + len(test)), som_seed, run_index),
                window_table(_named(Dataset([*train, *test])), [cfg.preprocess]))


def _fit(cfg: ExperimentConfig, som_params: SomTrainParams, records: Dataset,
         table: np.ndarray, rows=None, classes=None) -> ClassModel:
    """The ClassModel of a map trained with `som_params` on the WDFs of `records`,
    the int64 `rows` of `table` (all of it when None), of which the k-th record
    owns the k-th run of ``cfg.preprocess.wdf_count``; `classes` is the class order."""
    grid = train_som(table, cfg.rows, cfg.cols, som_params, subset=rows)
    classes, probs = table_class_probabilities(
        grid, table, [a.label for a in records], [cfg.preprocess.wdf_count] * len(records),
        classes, rows)
    return ClassModel(grid, classes, probs, cfg.preprocess, records.joint_count)


def _run(task: tuple, state: tuple | None = None) -> RunResult:
    """One (cfg, train_idx, test_idx, som_seed, run_index) task on `state`, the
    `window_table` pair (`_worker_state` in a worker) whose records the indices
    index. Action i owns rows [i w, (i + 1) w), w = ``cfg.preprocess.wdf_count``,
    of the table of `cfg.preprocess`, and both halves are read there in place."""
    records, tables = state or _worker_state
    cfg, train_idx, test_idx, som_seed, run_index = task
    train, test = (Dataset([records.actions[i] for i in idx]) for idx in (train_idx, test_idx))
    if len(train.class_set) < 2:
        raise ValueError(f"training half covers {len(train.class_set)} class(es); need at least 2")
    table, w = tables[cfg.preprocess], cfg.preprocess.wdf_count
    train_rows, test_rows = ((np.asarray(idx, dtype=np.int64)[:, None] * w + np.arange(w)).ravel()
                             for idx in (train_idx, test_idx))
    som_params = replace(cfg.som, seed=cfg.som.seed if som_seed is None else int(som_seed))
    model = _fit(cfg, som_params, train, table, train_rows,
                 class_order(set(train.class_set) | set(test.class_set)))

    index = {c: i for i, c in enumerate(model.classes)}
    n = len(model.classes)
    confusion = np.zeros((n, n), dtype=np.int64)
    prob_sums = np.zeros((n, n))
    subject_hits: dict = {}
    zero_evidence = 0
    for action, posterior in zip(test, posteriors(model, table, [w] * len(test), test_rows)):
        zero_evidence += posterior.zero_evidence
        t, p = index[action.label], index[posterior.predicted]
        confusion[t, p] += 1
        prob_sums[t] += posterior.normalized()
        subject_hits.setdefault(action.subject, []).append(t == p)

    if zero_evidence:
        logger.warning(
            "run %d: %d of %d test actions had zero evidence (every window on a "
            "unit no training window won) and were predicted as %r",
            run_index, zero_evidence, len(test), model.classes[0],
        )
    return RunResult(
        run_index=run_index,
        seed=som_params.seed,
        classes=tuple(model.classes),
        accuracy=float(np.trace(confusion) / confusion.sum()),
        confusion=confusion,
        prob_matrix=_per_row(prob_sums, confusion.sum(axis=1)),
        subject_accuracy={s: sum(hits) / len(hits) for s, hits in sorted(subject_hits.items())},
        train_subjects=train.subject_set,
        test_subjects=test.subject_set,
        model=model,
    )


# --- Protocol drivers -----------------------------------------------------------

# (records, tables) of the driver call a worker process serves; set by
# `_init_worker` in each worker, never in the calling process.
_worker_state: tuple | None = None


def _init_worker(windows: tuple, blas_threads: int) -> None:
    global _worker_state
    _worker_state = windows
    _native.blas_threads(blas_threads)


def _run_tasks(windows, tasks: list, jobs: int):
    """Yield the result of each (cfg, train_idx, test_idx, som_seed, run_index) task, in order.

    The one place that starts workers. `windows` is the (records, tables) pair
    of `window_table`, with a table for each `cfg.preprocess` among the tasks;
    indices are positions in the records. It runs the tasks in a loop, or on
    one pool of `jobs` workers that each receive the records and the tables
    once, and split the usable CPUs among their OpenBLAS threads. The caller
    runs on a worker's count while the pool lives, so that a forked worker
    inherits it and sets nothing (see `_native.blas_threads`).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(tasks) <= 1:
        yield from (_run(task, windows) for task in tasks)
        return
    # Forked workers inherit the loaded kernel; loaded in each worker instead,
    # a cold cache would compile it once per worker.
    _native.load("_som_kernel.c")
    workers = min(jobs, len(tasks))
    blas_threads = max(1, _usable_cpus() // workers)
    caller = _native.blas_threads(blas_threads)
    try:
        with ProcessPoolExecutor(workers, initializer=_init_worker,
                                 initargs=(windows, blas_threads)) as pool:
            yield from pool.map(_run, tasks)
    finally:
        _native.blas_threads(caller)


def _aggregate(protocol: str, results: list[RunResult]) -> AggregateResult:
    """Reduce runs to means; LOSO pools its accuracy over every held-out action."""
    classes = results[0].classes
    for r in results:
        if r.classes != classes:
            raise ValueError("runs disagree on the class set")
    accuracies = np.array([r.accuracy for r in results])
    if protocol == LOSO:
        mean = sum(r.correct_count for r in results) / sum(r.test_count for r in results)
    else:
        mean = float(accuracies.mean())
    subj_acc: dict = {}
    for r in results:
        for s, a in r.subject_accuracy.items():
            subj_acc.setdefault(s, []).append(a)
    return AggregateResult(
        protocol=protocol,
        classes=classes,
        run_results=results,
        mean_accuracy=float(mean),
        std_accuracy=float(accuracies.std()),
        mean_confusion=np.mean([r.confusion for r in results], axis=0),
        mean_prob_matrix=np.mean([r.prob_matrix for r in results], axis=0),
        subject_accuracy={s: float(np.mean(v)) for s, v in sorted(subj_acc.items())},
    )


def _tasks(protocol: str, subset: Dataset, cfg: ExperimentConfig, dataset: Dataset) -> list:
    """Every run of `protocol` on `subset` as a (cfg, train_idx, test_idx, som_seed,
    run_index) task, its indices positions in `dataset`."""
    if protocol == LOSO:
        splits = [(fold, derive_seed(cfg.seed, 0, k))
                  for k, fold in enumerate(splits_loso(subset))]
    else:
        splits = [(split_cross_subject(subset, derive_seed(cfg.seed, r, 0)),
                   derive_seed(cfg.seed, r, 1)) for r in range(cfg.runs)]
    position = {a.id: i for i, a in enumerate(dataset)}
    return [(cfg, *([position[a.id] for a in half] for half in halves), seed, r)
            for r, (halves, seed) in enumerate(splits)]


def _evaluate(windows, experiments: list, jobs: int):
    """Yield the result of each (protocol, subset, cfg) experiment, in order, as
    its last run ends: `windows` is the `window_table` pair, and each subset is a
    subset of its records. All the runs go through one `_run_tasks` call, whose
    pool shuts down before the generator ends."""
    tasks = [_tasks(protocol, subset, cfg, windows[0]) for protocol, subset, cfg in experiments]
    with closing(_run_tasks(windows, [t for runs in tasks for t in runs], jobs)) as results:
        for (protocol, *_), runs in zip(experiments, tasks):
            yield _aggregate(protocol, list(islice(results, len(runs))))


def cross_validate(dataset: Dataset, cfg: ExperimentConfig, jobs: int = 1) -> AggregateResult:
    """cfg.runs repetitions of a fresh random cross-subject half split."""
    windows = window_table(_named(dataset), [cfg.preprocess])
    [agg] = _evaluate(windows, [(CROSS_SUBJECT, windows[0], cfg)], jobs)
    return agg


def evaluate_loso(dataset: Dataset, cfg: ExperimentConfig, jobs: int = 1) -> AggregateResult:
    """Leave-one-subject-out; overall accuracy pools all held-out instances."""
    windows = window_table(_named(dataset), [cfg.preprocess])
    [agg] = _evaluate(windows, [(LOSO, windows[0], cfg)], jobs)
    return agg


# --- Parameter sweep --------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    subset: str
    window: int
    rows: int
    cols: int
    clusters: int
    runs: int
    mean_accuracy: float
    std_accuracy: float


def _sweep_combos(cfg: ExperimentConfig, windows, grids) -> list:
    """The config of each window x (rows, cols) grid combination from `cfg`, windows
    outer; a ValueError when an axis is empty or lists an entry twice (every task
    would train twice), or names the index of an entry `cfg` cannot take."""
    windows = list(windows)
    grids = [(r, c) for r, c in grids]
    if not windows or not grids:
        raise ValueError("need at least one window and one grid")
    for name, items, make in (("windows", windows, lambda w: replace(cfg.preprocess, window=w)),
                              ("grids", grids, lambda g: replace(cfg, rows=g[0], cols=g[1]))):
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ValueError(f"{name} lists {item!r} twice")
            try:
                make(item)
            except ValueError as e:
                raise ValueError(f"{name}[{i}]: {e}") from None
    return [replace(cfg, preprocess=replace(cfg.preprocess, window=w), rows=r, cols=c)
            for w in windows for r, c in grids]


def parameter_sweep(dataset: Dataset, cfg: ExperimentConfig, windows, grids,
                    action_sets: dict | None = None, jobs: int = 1) -> list[SweepRow]:
    """Cross-validate every window x grid combination.

    `grids` is a list of (rows, cols). With `action_sets` (name -> class
    list) each combination is evaluated per subset and an unweighted `mean`
    row across subsets is appended, mirroring how multi-subset benchmarks are
    usually reported. All combinations share the master seed, so their
    underlying splits are paired. Every window, grid and subset is checked
    before the first codebook is trained, and none may be listed twice
    (`_sweep_combos`).
    """
    return _sweep(_named(dataset), cfg, windows, grids, action_sets, jobs)


def _sweep(actions: tuple, cfg: ExperimentConfig, windows, grids, action_sets, jobs):
    """`parameter_sweep` of the `window_table` stream `actions`, of which it
    preprocesses, once per window, the actions of the subsets' classes."""
    combos = _sweep_combos(cfg, windows, grids)
    if action_sets:
        wanted = {label for labels in action_sets.values() for label in labels}
        count, stream = actions
        skipped = []  # records of the actions before the first of a listed class
        for name, a in stream:
            if a.label in wanted:
                break
            skipped.append(_Record(a.id, a.subject, a.label, a.num_joints))
        else:  # none is of a listed class: refused as filtering to the first subset refuses it
            filter_action_set(Dataset(skipped), action_sets[min(action_sets)])
        actions = count, chain([(name, a)], ((n, b) for n, b in stream if b.label in wanted))
    records, tables = window_table(actions, [combo.preprocess for combo in combos])
    if action_sets:
        subsets = {name: filter_action_set(records, action_sets[name])
                   for name in sorted(action_sets)}
    else:
        subsets = {"all": records}
    keys = [(combo, name) for combo in combos for name in subsets]
    experiments = [(CROSS_SUBJECT, subsets[name], combo) for combo, name in keys]
    last_subset = list(subsets)[-1]

    out: list[SweepRow] = []
    for (combo, name), agg in zip(keys, _evaluate((records, tables), experiments, jobs),
                                  strict=True):
        window = combo.preprocess.window
        out.append(SweepRow(name, window, combo.rows, combo.cols, combo.clusters,
                            cfg.runs, agg.mean_accuracy, agg.std_accuracy))
        logger.info("sweep %s W=%d %dx%d: %.4f +/- %.4f", name, window, combo.rows,
                    combo.cols, agg.mean_accuracy, agg.std_accuracy)
        if action_sets and name == last_subset:
            per_subset = out[-len(subsets):]
            out.append(replace(
                per_subset[0],
                subset="mean",
                mean_accuracy=float(np.mean([r.mean_accuracy for r in per_subset])),
                std_accuracy=float(np.mean([r.std_accuracy for r in per_subset])),
            ))
    return out


# --- CSV emission -------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _write_csv(path, header: str, rows) -> None:
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def write_results_csv(path, agg: AggregateResult, cfg: ExperimentConfig) -> None:
    """Per-run rows: run index, window, cluster count, seed, accuracy."""
    _write_csv(path, "run,window,clusters,seed,accuracy", (
        f"{r.run_index},{cfg.preprocess.window},{cfg.clusters},{r.seed},{_fmt(r.accuracy)}"
        for r in agg.run_results
    ))


def _write_matrix_csv(path, classes, matrix) -> None:
    _write_csv(path, "true_class," + ",".join(str(c) for c in classes), (
        f"{label}," + ",".join(_fmt(v) for v in row) for label, row in zip(classes, matrix)
    ))


def write_confusion_csv(path, agg: AggregateResult) -> None:
    """Mean confusion counts per cell; rows are true classes."""
    _write_matrix_csv(path, agg.classes, agg.mean_confusion)


def write_prob_matrix_csv(path, agg: AggregateResult) -> None:
    """Mean normalized class scores per true class."""
    _write_matrix_csv(path, agg.classes, agg.mean_prob_matrix)


def write_per_subject_csv(path, agg: AggregateResult) -> None:
    _write_csv(path, "subject,accuracy", (
        f"{subject},{_fmt(accuracy)}" for subject, accuracy in agg.subject_accuracy.items()
    ))


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    header = "subset,window,grid_rows,grid_cols,clusters,runs,mean_accuracy,std_accuracy"
    _write_csv(path, header, (
        f"{r.subset},{r.window},{r.rows},{r.cols},{r.clusters},{r.runs},"
        f"{_fmt(r.mean_accuracy)},{_fmt(r.std_accuracy)}"
        for r in rows
    ))
