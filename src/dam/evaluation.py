"""Cross-validated experiment harness with CSV emission.

`run_single` is the core: train the codebook on the training half only,
estimate class probabilities, score the held-out half with one
`classifier.score_actions` call. The two protocol drivers (`cross_validate`,
`evaluate_loso`) only list their runs as (train indices, test indices, SOM
seed, run index) tasks; one path then runs every task on the WDFs (windowed
direction frames) of the dataset, in a loop or on worker processes that
receive the dataset, the config and the shared WDFs once each. A protocol
call preprocesses each action once; `parameter_sweep` preprocesses each
action once per window and hands those WDFs to the cross-subject runs of
every grid and action subset. Per-run seeds are derived deterministically
from the master seed, so every result is reproducible bit-for-bit whatever
the number of workers.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .classifier import ClassModel, _per_row, fit_model, score_actions
from .dataset import Dataset, class_order, filter_action_set, split_cross_subject, splits_loso
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
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def clusters(self) -> int:
        return self.rows * self.cols


@dataclass
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


@dataclass
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

    @property
    def accuracies(self) -> list[float]:
        return [r.accuracy for r in self.run_results]


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
    actions are preprocessed here.
    """
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
    if wdfs is None:
        wdfs = {a.id: preprocess_action(a, cfg.preprocess) for a in (*train, *test)}

    train_sets = [wdfs[a.id] for a in train]
    som_params = replace(cfg.som, seed=cfg.som.seed if som_seed is None else int(som_seed))
    grid = train_som(np.vstack(train_sets), cfg.rows, cfg.cols, som_params)

    classes = class_order(set(train.class_set) | set(test.class_set))
    model = fit_model(
        grid, train_sets, [a.label for a in train], cfg.preprocess,
        train.joint_count, classes=classes,
    )

    index = {c: i for i, c in enumerate(classes)}
    n = len(classes)
    confusion = np.zeros((n, n), dtype=np.int64)
    prob_sums = np.zeros((n, n))
    subject_hits: dict = {}
    zero_evidence = 0
    for action, posterior in zip(test, score_actions(model, [wdfs[a.id] for a in test])):
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

# (dataset, cfg, wdfs) of the protocol call a worker process serves; set by
# `_init_worker` in each worker, never in the calling process.
_worker_state: tuple | None = None


def _init_worker(dataset: Dataset, cfg: ExperimentConfig, wdfs: dict) -> None:
    global _worker_state
    _worker_state = (dataset, cfg, wdfs)


def _run_task(task: tuple, state: tuple | None = None) -> RunResult:
    """Run one (train_idx, test_idx, som_seed, run_index) task."""
    dataset, cfg, wdfs = state or _worker_state
    train_idx, test_idx, som_seed, run_index = task
    train = Dataset([dataset.actions[i] for i in train_idx])
    test = Dataset([dataset.actions[i] for i in test_idx])
    return run_single(train, test, cfg, som_seed=som_seed, run_index=run_index, wdfs=wdfs)


def _run_tasks(dataset: Dataset, cfg: ExperimentConfig, tasks: list, jobs: int,
               wdfs: dict | None = None) -> list[RunResult]:
    """Run the tasks; results keep task order.

    `wdfs` maps the id of every action of `dataset` to its WDFs under
    `cfg.preprocess`; without it the actions are preprocessed here.
    """
    if wdfs is None:
        wdfs = {a.id: preprocess_action(a, cfg.preprocess) for a in dataset}
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_task(task, (dataset, cfg, wdfs)) for task in tasks]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        initializer=_init_worker,
        initargs=(dataset, cfg, wdfs),
    ) as pool:
        return list(pool.map(_run_task, tasks))


def _indices(dataset: Dataset, halves: tuple[Dataset, Dataset]) -> tuple[list, list]:
    """Positions in `dataset` of the actions of a (train, test) pair."""
    position = {a.id: i for i, a in enumerate(dataset)}
    return tuple([position[a.id] for a in half] for half in halves)


def _aggregate(protocol: str, results: list[RunResult], pooled: bool) -> AggregateResult:
    classes = results[0].classes
    for r in results:
        if r.classes != classes:
            raise ValueError("runs disagree on the class set")
    accuracies = np.array([r.accuracy for r in results])
    if pooled:
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


def _cross_subject_tasks(dataset: Dataset, cfg: ExperimentConfig) -> list:
    """One task per run; depends only on the dataset, `cfg.seed` and `cfg.runs`."""
    return [
        (*_indices(dataset, split_cross_subject(dataset, derive_seed(cfg.seed, r, 0))),
         derive_seed(cfg.seed, r, 1), r)
        for r in range(cfg.runs)
    ]


def cross_validate(dataset: Dataset, cfg: ExperimentConfig, jobs: int = 1) -> AggregateResult:
    """cfg.runs repetitions of a fresh random cross-subject half split."""
    results = _run_tasks(dataset, cfg, _cross_subject_tasks(dataset, cfg), jobs)
    return _aggregate(CROSS_SUBJECT, results, pooled=False)


def evaluate_loso(dataset: Dataset, cfg: ExperimentConfig, jobs: int = 1,
                  repeats: int = 1) -> AggregateResult:
    """Leave-one-subject-out; overall accuracy pools all held-out instances.

    `repeats` > 1 re-runs every fold with fresh SOM seeds (the folds
    themselves are deterministic) and averages.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    folds = [_indices(dataset, fold) for fold in splits_loso(dataset)]
    tasks = [
        (*fold, derive_seed(cfg.seed, rep, k), rep * len(folds) + k)
        for rep in range(repeats)
        for k, fold in enumerate(folds)
    ]
    return _aggregate(LOSO, _run_tasks(dataset, cfg, tasks, jobs), pooled=True)


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
    before the first codebook is trained.
    """
    windows = list(windows)
    grids = [(int(r), int(c)) for r, c in grids]
    if not windows or not grids:
        raise ValueError("need at least one window and one grid")
    configs = [
        [replace(cfg, preprocess=replace(cfg.preprocess, window=w), rows=r, cols=c)
         for r, c in grids]
        for w in windows
    ]
    if action_sets:
        subsets = {name: filter_action_set(dataset, action_sets[name])
                   for name in sorted(action_sets)}
    else:
        subsets = {"all": dataset}
    tasks = {name: _cross_subject_tasks(sub, cfg) for name, sub in subsets.items()}
    actions = {a.id: a for sub in subsets.values() for a in sub}

    out: list[SweepRow] = []
    for window, window_cfgs in zip(windows, configs):
        wdfs = {i: preprocess_action(a, window_cfgs[0].preprocess) for i, a in actions.items()}
        for combo in window_cfgs:
            per_subset: list[SweepRow] = []
            for name, sub in subsets.items():
                sub_wdfs = {a.id: wdfs[a.id] for a in sub}
                results = _run_tasks(sub, combo, tasks[name], jobs, sub_wdfs)
                agg = _aggregate(CROSS_SUBJECT, results, pooled=False)
                per_subset.append(SweepRow(name, window, combo.rows, combo.cols, combo.clusters,
                                           cfg.runs, agg.mean_accuracy, agg.std_accuracy))
                logger.info("sweep %s W=%d %dx%d: %.4f +/- %.4f", name, window, combo.rows,
                            combo.cols, agg.mean_accuracy, agg.std_accuracy)
            out.extend(per_subset)
            if action_sets:
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
