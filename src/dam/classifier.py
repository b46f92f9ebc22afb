"""Classification: per-cluster class probabilities and histogram posteriors.

A trained model couples the codebook with a (units x classes) matrix whose
row l holds P(class | unit l), estimated from the training WDFs that unit l
won. An action's score for class c is the histogram-weighted sum of those
probabilities; the argmax wins, ties to the earliest class in the model's
class order.
"""

from __future__ import annotations

import binascii
import json
import reprlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._jsonin import build, field, is_kind, reject_unknown
from .dataset import _file_text, class_order
from .descriptor import Histogram, compute_histogram, pair_counts
from .preprocess import PreprocessParams, preprocess_action
from .som import SomGrid, bmu_batch

MODEL_FORMAT_VERSION = "2"
_MODEL_FIELDS = ("format_version", "joint_count", "preprocess", "grid", "classes",
                 "cluster_class_probs")

_ROW_SUM_TOL = 1e-9


@dataclass
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


@dataclass(frozen=True)
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


def estimate_class_probabilities(grid, wdf_sets, labels, classes=None):
    """Estimate P(class | unit) from labeled per-action WDF sets.

    Args:
        grid: trained codebook.
        wdf_sets: sequence of (n_i, dim) arrays, one per training action.
        labels: class label per entry of wdf_sets.
        classes: optional explicit class order; defaults to the sorted labels.

    Returns:
        (classes, probs): the class order used and the (units, classes)
        probability matrix. Units that won no training WDF get all-zero rows.
    """
    wdf_sets = [np.asarray(w, dtype=np.float64) for w in wdf_sets]
    labels = list(labels)
    if len(wdf_sets) != len(labels):
        raise ValueError(
            f"{len(wdf_sets)} WDF sets but {len(labels)} labels"
        )
    if classes is None:
        classes = class_order(labels)
    classes = list(classes)
    index = {label: i for i, label in enumerate(classes)}
    unknown = [l for l in labels if l not in index]
    if unknown:
        raise ValueError(f"label {unknown[0]!r} not in the class list {classes!r}")

    sizes = [len(w) for w in wdf_sets]
    if not any(sizes):
        raise ValueError("no training WDFs")
    # One winner search over every training WDF; winner l of a WDF of class c
    # counts in cell (l, c) of the (units, C) count table.
    winners = bmu_batch(grid, np.concatenate([w for w in wdf_sets if len(w)]))
    class_index = np.repeat([index[label] for label in labels], sizes)
    counts = pair_counts(winners, class_index, (grid.unit_count, len(classes)))
    return classes, _per_row(counts, counts.sum(axis=1))


def _per_row(totals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row i of `totals` divided by counts[i]; a row whose count is 0 stays all-zero."""
    counts = counts[:, None]
    return np.divide(totals, counts, out=np.zeros_like(totals), where=counts > 0)


def fit_model(grid, wdf_sets, labels, params: PreprocessParams, joint_count: int,
              classes=None) -> ClassModel:
    """estimate_class_probabilities + packaging into a ClassModel."""
    classes, probs = estimate_class_probabilities(grid, wdf_sets, labels, classes)
    return ClassModel(
        grid=grid,
        classes=classes,
        cluster_class_probs=probs,
        params=params,
        joint_count=joint_count,
    )


def class_posterior(model: ClassModel, histogram: Histogram) -> Posterior:
    """Score every class: sum over units of P(class | unit) * histogram mass."""
    bins = np.asarray(histogram.bins, dtype=np.float64)
    if bins.shape[0] != model.grid.unit_count:
        raise ValueError(
            f"histogram has {bins.shape[0]} bins, model expects {model.grid.unit_count}"
        )
    return Posterior(
        classes=tuple(model.classes),
        scores=bins @ model.cluster_class_probs,
    )


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
    return class_posterior(model, compute_histogram(model.grid, action_windows(model, action)))


# --- Model files -----------------------------------------------------------------

def save_model(model: ClassModel, path) -> None:
    """Write the model as deterministic JSON.

    The codebook is stored as the lowercase hex of its row-major,
    little-endian float64 bytes, so it round-trips bit for bit and loads
    without parsing decimals; every other float keeps full round-trip
    precision as a JSON number. The file is the bytes of
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``; the hex,
    which JSON leaves as it is, is spliced in rather than scanned for
    characters to escape.
    """
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "joint_count": model.joint_count,
        "preprocess": asdict(model.params),
        "grid": {
            "rows": model.grid.rows,
            "cols": model.grid.cols,
            "dim": model.grid.dim,
            "codebook": "",
        },
        "classes": list(model.classes),
        "cluster_class_probs": model.cluster_class_probs.tolist(),
    }
    # Inside a JSON string every quote is escaped, so the empty codebook
    # string is the only place this key and value appear.
    head, _, tail = json.dumps(payload, sort_keys=True, separators=(",", ":")).partition(
        '"codebook":""')
    codebook = model.grid.codebook.astype("<f8", copy=False).tobytes().hex()
    Path(path).write_text(f'{head}"codebook":"{codebook}"{tail}\n')


def load_model(path) -> ClassModel:
    """Parse and fully validate a model file written by save_model.

    Every error, a malformed structure included, is a ValueError that names
    the file. The file is read once; `_spliced_payload` decodes the
    codebook of a file laid out as save_model writes it, and any other file
    is parsed as whole JSON text, which gives the same model or error.
    """
    data = Path(path).read_bytes()
    parsed = _spliced_payload(data)
    if parsed is None:
        try:
            parsed = json.loads(_file_text(data)), None
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON: {e}") from None
    try:
        return _decode_model(*parsed)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


# The key and the opening quote of the codebook's value, as save_model writes them.
_CODEBOOK_SLOT = b'"codebook":"'


def _spliced_payload(data: bytes) -> tuple[dict, bytes] | None:
    """(payload, codebook bytes) of a model file's bytes, or None.

    The hex between the first `"codebook":"` and the next quote is decoded
    in place. Only the rest of the file, with that string replaced by the
    constant NaN, is decoded as text and parsed as JSON. The result stands
    only when that NaN is the one constant the parser met and the value it
    gives `grid.codebook`: the whole file then parses to the same payload
    with the hex there, which `bytes.fromhex` decodes to the same bytes.
    Any other file (hex with spaces or escapes, a `codebook` key elsewhere
    or twice, text that is not JSON) gives None, and parsing the whole file
    words its error.
    """
    start = data.find(_CODEBOOK_SLOT)
    if start < 0:
        return None
    start += len(_CODEBOOK_SLOT)
    end = data.find(b'"', start)
    if end < 0:
        return None
    try:
        codebook = binascii.unhexlify(memoryview(data)[start:end])
    except binascii.Error:
        return None
    constants = []

    def constant(name):
        # Every constant parses to this list, which no JSON value is.
        constants.append(name)
        return constants

    try:
        payload = json.loads(_file_text(data[:start - 1] + b"NaN" + data[end + 1:]),
                             parse_constant=constant)
    except ValueError:
        return None
    grid = payload.get("grid") if isinstance(payload, dict) else None
    if len(constants) != 1 or not isinstance(grid, dict) or grid.get("codebook") is not constants:
        return None
    return payload, codebook


def _decode_model(payload, raw: bytes | None = None) -> ClassModel:
    """The model `payload` holds; `raw`, when given, is its decoded codebook."""
    if not isinstance(payload, dict):
        raise ValueError(f"model file must hold a JSON object, got {reprlib.repr(payload)}")
    version = field(payload, "format_version", str)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(this build reads {MODEL_FORMAT_VERSION!r}); re-create it with `dam train`"
        )
    reject_unknown(payload, _MODEL_FIELDS)
    grid_data = field(payload, "grid", dict)
    reject_unknown(grid_data, ("rows", "cols", "dim", "codebook"), "grid.")
    rows, cols, dim = (
        field(grid_data, key, int, "grid.") for key in ("rows", "cols", "dim")
    )
    if min(rows, cols, dim) < 1:
        raise ValueError(
            f"fields 'grid.rows', 'grid.cols', 'grid.dim' must be >= 1, "
            f"got {rows}, {cols}, {dim}"
        )
    if raw is None:
        text = field(grid_data, "codebook", str, "grid.")
        try:
            raw = bytes.fromhex(text)
        except ValueError as e:
            raise ValueError(f"field 'grid.codebook' is not a hex string: {e}") from None
    if len(raw) != rows * cols * dim * 8:
        raise ValueError(
            f"field 'grid.codebook' holds {len(raw)} bytes, expected "
            f"rows * cols * dim * 8 = {rows * cols * dim * 8}"
        )
    codebook = np.frombuffer(raw, dtype="<f8").reshape(rows * cols, dim).astype(np.float64)
    grid = SomGrid(rows=rows, cols=cols, codebook=codebook)

    preprocess = field(payload, "preprocess", dict)
    params = build(PreprocessParams, preprocess, "preprocess.", defaults=False)
    classes = field(payload, "classes", list)
    for i, label in enumerate(classes):
        if not (is_kind(label, int) or is_kind(label, str)):
            raise ValueError(f"field 'classes[{i}]' must be a JSON integer or string, "
                             f"got {reprlib.repr(label)}")
    probs = field(payload, "cluster_class_probs", list)
    try:
        probs = np.asarray(probs, dtype=np.float64)
    except TypeError as e:
        raise ValueError(f"field 'cluster_class_probs' is not numeric: {e}") from None
    return ClassModel(
        grid=grid,
        classes=classes,
        cluster_class_probs=probs,
        params=params,
        joint_count=field(payload, "joint_count", int),
    )
