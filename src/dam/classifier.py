"""Classification: per-cluster class probabilities and histogram posteriors.

A trained model couples the codebook with a (units x classes) matrix whose
row l holds P(class | unit l), estimated from the training WDFs that unit l
won. `posteriors`, the one path from WDFs to scores, scores class c of a set
of rows of a window table by the histogram-weighted sum of those
probabilities; the argmax wins, ties to the earliest class in the model's
class order. `fit_model` and `score_actions` stack a list of sets first.
"""

from __future__ import annotations

import json
import os
import reprlib
from dataclasses import asdict, dataclass

import numpy as np

from ._jsonin import build, field, is_kind, reject_unknown
from .dataset import class_order
from .descriptor import _set_winners, pair_counts, table_bins
from .preprocess import PreprocessParams, preprocess_action
from .som import SomGrid

MODEL_FORMAT_VERSION = "4"
_MODEL_FIELDS = ("format_version", "joint_count", "preprocess", "grid", "classes")

_ROW_SUM_TOL = 1e-9


@dataclass(eq=False)
class ClassModel:
    """Everything needed to classify a raw action: codebook, probabilities, knobs."""

    grid: SomGrid
    classes: list
    cluster_class_probs: np.ndarray  # (units, len(classes))
    params: PreprocessParams
    joint_count: int

    def __post_init__(self) -> None:
        self.classes = list(self.classes)
        if not self.classes:
            raise ValueError("model needs at least one class")
        if len(set(map(repr, self.classes))) != len(self.classes):
            raise ValueError("duplicate class labels")
        probs = np.asarray(self.cluster_class_probs, dtype=np.float64)
        self.cluster_class_probs = probs
        expected = (self.grid.unit_count, len(self.classes))
        if probs.shape != expected:
            raise ValueError(
                f"cluster_class_probs has shape {probs.shape}, expected {expected}"
            )
        if probs.min() < 0.0:
            raise ValueError("cluster_class_probs contains negative entries")
        sums = probs.sum(axis=1)
        bad = ~((np.abs(sums - 1.0) <= _ROW_SUM_TOL) | (sums == 0.0))
        if bad.any():
            raise ValueError(
                f"cluster_class_probs row {int(np.argmax(bad))} sums to "
                f"{sums[bad][0]!r}; rows must sum to 1 or be all zero"
            )
        if self.grid.dim != self.params.feature_dim(self.joint_count):
            raise ValueError(
                f"codebook dimension {self.grid.dim} does not match "
                f"joint_count * 3 * window = {self.params.feature_dim(self.joint_count)}"
            )


@dataclass(frozen=True, eq=False)
class Posterior:
    """Raw (unnormalized) per-class scores for one action."""

    classes: tuple
    scores: np.ndarray

    @property
    def predicted(self):
        """Highest-scoring class; all-zero scores fall to the first class."""
        return self.classes[int(np.argmax(self.scores))]

    @property
    def zero_evidence(self) -> bool:
        """True when every score is zero: no window landed on a unit with a class."""
        return not np.any(self.scores)

    def normalized(self) -> np.ndarray:
        """Scores rescaled to sum to 1; all-zero stays all-zero."""
        total = self.scores.sum()
        if total > 0.0:
            return self.scores / total
        return np.zeros_like(self.scores)


def table_class_probabilities(grid, table, labels, sizes, classes=None, subset=None):
    """(classes, probs): P(class | unit) estimated from labeled sets of rows of one table.

    Set i, labelled labels[i], is read as `dam.descriptor._set_winners` reads it. `classes`
    is the class order, by default the sorted labels; probs is (units, classes), all-zero
    in the rows of units that won no training WDF.
    """
    labels = list(labels)
    if len(sizes) != len(labels):
        raise ValueError(f"{len(sizes)} WDF sets but {len(labels)} labels")
    if classes is None:
        classes = class_order(labels)
    classes = list(classes)
    index = {label: i for i, label in enumerate(classes)}
    unknown = [l for l in labels if l not in index]
    if unknown:
        raise ValueError(f"label {unknown[0]!r} not in the class list {classes!r}")

    owners, winners = _set_winners(grid, table, sizes, subset)
    if not len(winners):
        raise ValueError("no training WDFs")
    # Winner l of a WDF of class c counts in cell (l, c) of the (units, C) table.
    class_of_set = np.array([index[label] for label in labels], dtype=np.int64)
    counts = pair_counts(winners, class_of_set[owners], (grid.unit_count, len(classes)))
    return classes, _per_row(counts, counts.sum(axis=1))


def _per_row(totals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row i of `totals` divided by counts[i]; a row whose count is 0 stays all-zero."""
    counts = counts[:, None]
    return np.divide(totals, counts, out=np.zeros_like(totals), where=counts > 0)


def _stacked(grid: SomGrid, wdf_sets, allow_empty: bool) -> tuple[np.ndarray, list[int]]:
    """The (n_i, dim) sets as one table, and their sizes; a ValueError names the first set
    that is not 2-D of the codebook's dimension, or that is empty unless `allow_empty`."""
    wdf_sets = [np.asarray(w, dtype=np.float64) for w in wdf_sets]
    for i, wdfs in enumerate(wdf_sets):
        if wdfs.ndim != 2 or wdfs.shape[1] != grid.dim or not (allow_empty or len(wdfs)):
            raise ValueError(f"WDF set {i} has shape {wdfs.shape}, expected a "
                             f"{'' if allow_empty else 'non-empty '}(n, {grid.dim}) array")
    return np.concatenate([np.empty((0, grid.dim)), *wdf_sets]), [len(w) for w in wdf_sets]


def fit_model(grid, wdf_sets, labels, params: PreprocessParams, joint_count: int,
              classes=None) -> ClassModel:
    """The ClassModel whose P(class | unit) `table_class_probabilities` estimates
    from labeled (n_i, dim) WDF sets, one per training action, stacked once."""
    table, sizes = _stacked(grid, wdf_sets, allow_empty=True)
    classes, probs = table_class_probabilities(grid, table, labels, sizes, classes)
    return ClassModel(grid, classes, probs, params, joint_count)


def score_actions(model: ClassModel, wdf_sets) -> list[Posterior]:
    """The posterior of each non-empty (n_i, dim) set, from one winner search over all of them."""
    return posteriors(model, *_stacked(model.grid, wdf_sets, allow_empty=False))


def posteriors(model: ClassModel, table: np.ndarray, sizes, subset=None) -> list[Posterior]:
    """The posterior of each set of rows of a window table, sets as `table_bins` reads them:
    class c scores sum_l P(c | l) * bins[l] over the set's bins row. Each row is its own
    ``bins @ probs`` product, as one (sets, units) @ (units, classes) product may round
    differently, moving scores and their ties."""
    bins = table_bins(model.grid, table, sizes, subset)
    return [Posterior(tuple(model.classes), row @ model.cluster_class_probs) for row in bins]


def action_windows(model: ClassModel, action) -> np.ndarray:
    """The WDFs of a raw action, preprocessed with the model's own parameters.

    The action must be (F, J, 3) with the model's joint count J.
    """
    frames = np.asarray(getattr(action, "frames", action), dtype=np.float64)
    if frames.ndim != 3:
        raise ValueError(f"action must have shape (F, J, 3), got {frames.shape}")
    if frames.shape[1] != model.joint_count:
        raise ValueError(
            f"action has {frames.shape[1]} joints but the model was trained "
            f"with {model.joint_count}"
        )
    return preprocess_action(frames, model.params)


def classify_action(model: ClassModel, action) -> Posterior:
    """Preprocess a raw action with the model's own parameters and score it."""
    windows = action_windows(model, action)
    return posteriors(model, windows, [len(windows)])[0]


# --- Model files -----------------------------------------------------------------

def save_model(model: ClassModel, path) -> None:
    """Write the model as one JSON header line and the raw bytes of its two arrays
    (model format 4).

    Line 1 is ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` of
    every field but the codebook and `cluster_class_probs`, right-padded with
    spaces so that its newline ends on a multiple of 8 bytes. The codebook
    (units, dim) and then `cluster_class_probs` (units, classes) follow as
    row-major, little-endian float64, which round-trip bit for bit.
    """
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "joint_count": model.joint_count,
        "preprocess": asdict(model.params),
        "grid": {"rows": model.grid.rows, "cols": model.grid.cols, "dim": model.grid.dim},
        "classes": list(model.classes),
    }
    header = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    header += " " * (-(len(header) + 1) % 8) + "\n"
    with open(path, "wb") as f:
        f.write(header.encode())
        for array in (model.grid.codebook, model.cluster_class_probs):
            f.write(np.ascontiguousarray(array, dtype="<f8"))


def load_model(path) -> ClassModel:
    """Parse and fully validate a model file written by save_model.

    Line 1 is read and checked, then the size of the rest against the file's
    (so it must be a regular file) before any array is allocated; each array is
    then read in place, the codebook into a read-only one that `SomGrid` keeps.
    Every error, a malformed structure included, is a ValueError naming the file.
    """
    with open(path, "rb") as f:
        try:
            return _read_model(f)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def _read_model(f) -> ClassModel:
    """The model that the binary file `f`, at its start, holds."""
    line = f.readline()
    try:
        payload = json.loads(line.removesuffix(b"\n"))
    except ValueError as e:
        raise ValueError(f"line 1 is not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"line 1 must hold a JSON object, got {reprlib.repr(payload)}")
    version = field(payload, "format_version", str)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(this build reads {MODEL_FORMAT_VERSION!r}); re-create it with `dam train`"
        )
    reject_unknown(payload, _MODEL_FIELDS)
    grid_data = field(payload, "grid", dict)
    reject_unknown(grid_data, ("rows", "cols", "dim"), "grid.")
    rows, cols, dim = (field(grid_data, key, int, "grid.") for key in ("rows", "cols", "dim"))
    if min(rows, cols, dim) < 1:
        raise ValueError(
            f"fields 'grid.rows', 'grid.cols', 'grid.dim' must be >= 1, "
            f"got {rows}, {cols}, {dim}"
        )
    preprocess = field(payload, "preprocess", dict)
    params = build(PreprocessParams, preprocess, "preprocess.", defaults=False)
    classes = field(payload, "classes", list)
    for i, label in enumerate(classes):
        if not (is_kind(label, int) or is_kind(label, str)):
            raise ValueError(f"field 'classes[{i}]' must be a JSON integer or string, "
                             f"got {reprlib.repr(label)}")
    units, size = rows * cols, os.fstat(f.fileno()).st_size - len(line)
    expected = 8 * units * (dim + len(classes))
    if size != expected:
        raise ValueError(f"the arrays after line 1 hold {size} bytes, expected 8 * units * "
                         f"(dim + classes) = {expected}")
    codebook, probs = np.empty((units, dim), "<f8"), np.empty((units, len(classes)), "<f8")
    if f.readinto(codebook) + f.readinto(probs) + len(f.read(1)) != expected:
        raise ValueError(f"the file changed size while it was read: the arrays after "
                         f"line 1 no longer hold the {expected} bytes it had")
    codebook.flags.writeable = False
    return ClassModel(
        grid=SomGrid(rows=rows, cols=cols, codebook=codebook),
        classes=classes,
        cluster_class_probs=probs,
        params=params,
        joint_count=field(payload, "joint_count", int),
    )
