"""Cross-validated experiment harness with CSV emission.

A run trains the codebook on the training half only, estimates class
probabilities, and scores the held-out half with one winner search.
`cross_validate`, `evaluate_loso`, `parameter_sweep` and `dam evaluate` each
make one `_evaluate` call: it lists every run as a (config, train indices,
test indices, SOM seed, run index) task and hands them all to one
`_run_tasks` call, so `dam evaluate --exclusions both` runs with and without
exclusions as one pass. That driver preprocesses each action once per
distinct preprocessing config into one window table (`window_table`: action
i owns rows [i w, (i + 1) w), w = wdf_count, of WDFs, windowed direction
frames), then runs every task in a loop or on one pool of worker processes.
A run reads its halves in place, as arrays of row indices of that table:
`train_som`, `table_class_probabilities` and `table_bins` gather one
cache-sized block at a time, so no run copies its windows. A sweep holds the
tables of all its windows at once. `run_single` is the same run for two
datasets of the caller's. Per-run seeds are derived from the master seed, so
every result is reproducible bit-for-bit whatever the number of workers.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import _jsonin, _native
from .classifier import ClassModel, _per_row, posteriors, table_class_probabilities
from .dataset import Dataset, class_order, filter_action_set, split_cross_subject, splits_loso
from .descriptor import table_bins
from .preprocess import PreprocessParams, preprocess_action
from .som import SomTrainParams, train_som

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


def window_table(actions: Dataset, params: PreprocessParams, wdfs: dict | None = None
                 ) -> np.ndarray:
    """The WDFs of `actions` in one (len(actions) * w, dim) float64 table, w =
    ``params.wdf_count``: action i owns rows [i w, (i + 1) w).

    Each action's rows are filled with its `preprocess_action` output, or,
    with `wdfs`, with ``wdfs[action.id]``, which must have that shape.
    """
    w = params.wdf_count
    table = np.empty((len(actions) * w, params.feature_dim(actions.joint_count)))
    for i, action in enumerate(actions):
        windows = preprocess_action(action, params) if wdfs is None else wdfs[action.id]
        if np.shape(windows) != (w, table.shape[1]):
            raise ValueError(f"the WDFs of action {action.id!r} have shape "
                             f"{np.shape(windows)}, expected {(w, table.shape[1])}")
        table[i * w : (i + 1) * w] = windows
    return table


def run_single(
    train: Dataset,
    test: Dataset,
    cfg: ExperimentConfig,
    som_seed: int | None = None,
    run_index: int = 0,
    wdfs: dict | None = None,
) -> RunResult:
    """Train on `train` only (no test leakage anywhere) and score `test`.

    `wdfs` optionally maps the id of every action in both halves to its
    preprocessed WDFs under `cfg.preprocess`; it is only read. Without it the
    actions are preprocessed here. Each half goes into a `window_table` of
    its own, read whole by `_run`.
    """
    train_table, test_table = (window_table(half, cfg.preprocess, wdfs) for half in (train, test))
    return _run(train, test, cfg, som_seed, run_index, (train_table, None), (test_table, None))


def _run(train: Dataset, test: Dataset, cfg: ExperimentConfig, som_seed: int | None,
         run_index: int, train_windows: tuple, test_windows: tuple) -> RunResult:
    """One run. Each half's WDFs are a (table, rows) pair: `rows` is an int64 array
    of row indices of `table`, or None for all of it, and the k-th action of the
    half owns the k-th run of ``cfg.preprocess.wdf_count`` of those rows. The
    rows are read in place."""
    overlap = set(train.subject_set) & set(test.subject_set)
    if overlap:
        raise ValueError(f"train and test share subjects {sorted(overlap)}")
    if train.joint_count != test.joint_count:
        raise ValueError(
            f"joint count mismatch: train has {train.joint_count}, "
            f"test has {test.joint_count}"
        )
    if len(train.class_set) < 2:
        raise ValueError(
            f"training half covers {len(train.class_set)} class(es); need at least 2"
        )
    w = cfg.preprocess.wdf_count
    som_params = replace(cfg.som, seed=cfg.som.seed if som_seed is None else int(som_seed))
    table, subset = train_windows
    grid = train_som(table, cfg.rows, cfg.cols, som_params, subset=subset)

    classes, probs = table_class_probabilities(
        grid, table, [a.label for a in train], [w] * len(train),
        class_order(set(train.class_set) | set(test.class_set)), subset,
    )
    model = ClassModel(grid, classes, probs, cfg.preprocess, train.joint_count)

    index = {c: i for i, c in enumerate(classes)}
    n = len(classes)
    confusion = np.zeros((n, n), dtype=np.int64)
    prob_sums = np.zeros((n, n))
    subject_hits: dict = {}
    zero_evidence = 0
    table, subset = test_windows
    bins = table_bins(grid, table, [w] * len(test), subset)
    for action, posterior in zip(test, posteriors(model, bins)):
        zero_evidence += posterior.zero_evidence
        t = index[action.label]
        p = index[posterior.predicted]
        confusion[t, p] += 1
        prob_sums[t] += posterior.normalized()
        subject_hits.setdefault(action.subject, []).append(t == p)

    if zero_evidence:
        logger.warning(
            "run %d: %d of %d test actions had zero evidence (every window on a "
            "unit no training window won) and were predicted as %r",
            run_index, zero_evidence, len(test), classes[0],
        )
    return RunResult(
        run_index=run_index,
        seed=som_params.seed,
        classes=tuple(classes),
        accuracy=float(np.trace(confusion) / confusion.sum()),
        confusion=confusion,
        prob_matrix=_per_row(prob_sums, confusion.sum(axis=1)),
        subject_accuracy={s: sum(hits) / len(hits) for s, hits in sorted(subject_hits.items())},
        train_subjects=train.subject_set,
        test_subjects=test.subject_set,
        model=model,
    )


# --- Protocol drivers -----------------------------------------------------------

# (dataset, tables) of the driver call a worker process serves; set by
# `_init_worker` in each worker, never in the calling process.
_worker_state: tuple | None = None


def _init_worker(dataset: Dataset, tables: dict) -> None:
    global _worker_state
    _worker_state = (dataset, tables)


def _run_task(task: tuple, state: tuple | None = None) -> RunResult:
    """Run one (cfg, train_idx, test_idx, som_seed, run_index) task on the window
    table of its `cfg.preprocess`."""
    dataset, tables = state or _worker_state
    cfg, train_idx, test_idx, som_seed, run_index = task
    table = tables[cfg.preprocess]
    w = cfg.preprocess.wdf_count

    def windows(idx):  # action i owns rows [i w, (i + 1) w) of the table
        return table, (np.asarray(idx, dtype=np.int64)[:, None] * w + np.arange(w)).ravel()

    train, test = (Dataset([dataset.actions[i] for i in idx]) for idx in (train_idx, test_idx))
    return _run(train, test, cfg, som_seed, run_index, windows(train_idx), windows(test_idx))


def _run_tasks(dataset: Dataset, tasks: list, jobs: int):
    """Yield the result of each (cfg, train_idx, test_idx, som_seed, run_index) task, in order.

    The one place that preprocesses actions and starts workers. Indices are
    positions in `dataset`. It makes one `window_table` of `dataset` per
    distinct `cfg.preprocess` among the tasks, in the calling process, then
    runs the tasks in a loop, or on one pool of `jobs` workers that each
    receive the dataset and the tables once.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    params = dict.fromkeys(cfg.preprocess for cfg, *_ in tasks)
    tables = {p: window_table(dataset, p) for p in params}
    if jobs == 1 or len(tasks) <= 1:
        yield from (_run_task(task, (dataset, tables)) for task in tasks)
        return
    # Forked workers inherit the loaded kernel; loaded in each worker instead,
    # a cold cache would compile it once per worker.
    _native.load("_som_kernel.c")
    with ProcessPoolExecutor(min(jobs, len(tasks)), initializer=_init_worker,
                             initargs=(dataset, tables)) as pool:
        yield from pool.map(_run_task, tasks)


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


def _evaluate(dataset: Dataset, experiments: list, jobs: int):
    """Yield the result of each (protocol, subset, cfg) experiment, in order, as
    its last run ends; each subset is a subset of `dataset`.

    The runs of all the experiments go through one `_run_tasks` call, whose
    pool shuts down before the generator ends.
    """
    tasks = [_tasks(protocol, subset, cfg, dataset) for protocol, subset, cfg in experiments]
    with closing(_run_tasks(dataset, [t for runs in tasks for t in runs], jobs)) as results:
        for (protocol, *_), runs in zip(experiments, tasks):
            yield _aggregate(protocol, list(islice(results, len(runs))))


def cross_validate(dataset: Dataset, cfg: ExperimentConfig, jobs: int = 1) -> AggregateResult:
    """cfg.runs repetitions of a fresh random cross-subject half split."""
    [agg] = _evaluate(dataset, [(CROSS_SUBJECT, dataset, cfg)], jobs)
    return agg


def evaluate_loso(dataset: Dataset, cfg: ExperimentConfig, jobs: int = 1) -> AggregateResult:
    """Leave-one-subject-out; overall accuracy pools all held-out instances."""
    [agg] = _evaluate(dataset, [(LOSO, dataset, cfg)], jobs)
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


def _sweep_axes(windows, grids) -> tuple[list, list]:
    """The windows and (rows, cols) grids of a sweep, as lists; a ValueError when
    either is empty or lists an entry twice (it would train every task twice)."""
    windows = list(windows)
    grids = [(r, c) for r, c in grids]
    if not windows or not grids:
        raise ValueError("need at least one window and one grid")
    for name, items in (("windows", windows), ("grids", grids)):
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ValueError(f"{name} lists {item!r} twice")
    return windows, grids


def parameter_sweep(
    dataset: Dataset,
    cfg: ExperimentConfig,
    windows,
    grids,
    action_sets: dict | None = None,
    jobs: int = 1,
) -> list[SweepRow]:
    """Cross-validate every window x grid combination.

    `grids` is a list of (rows, cols). With `action_sets` (name -> class
    list) each combination is evaluated per subset and an unweighted `mean`
    row across subsets is appended, mirroring how multi-subset benchmarks are
    usually reported. All combinations share the master seed, so their
    underlying splits are paired. Every window, grid and subset is checked
    before the first codebook is trained, and none may be listed twice
    (`_sweep_axes`).
    """
    windows, grids = _sweep_axes(windows, grids)
    combos = [replace(cfg, preprocess=replace(cfg.preprocess, window=w), rows=r, cols=c)
              for w in windows for r, c in grids]
    if action_sets:
        subsets = {name: filter_action_set(dataset, action_sets[name])
                   for name in sorted(action_sets)}
    else:
        subsets = {"all": dataset}
    union = Dataset(list({a.id: a for sub in subsets.values() for a in sub}.values()))
    keys = [(combo, name) for combo in combos for name in subsets]
    experiments = [(CROSS_SUBJECT, subsets[name], combo) for combo, name in keys]
    last_subset = list(subsets)[-1]

    out: list[SweepRow] = []
    for (combo, name), agg in zip(keys, _evaluate(union, experiments, jobs), strict=True):
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
