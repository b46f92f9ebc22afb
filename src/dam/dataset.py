"""Skeletal action corpora: canonical files, dataset adapters, filters, splits.

The canonical on-disk form is one text file per action instance::

    # optional comments
    id,subject,class,num_frames,num_joints
    x1 y1 z1 x2 y2 z2 ...        (num_joints * 3 floats, num_frames lines)

A dataset is a directory of such files plus an optional ``exclude.txt``
(instance ids to drop, one per line). Adapters for the two supported raw
corpora (MSR-Action3D skeleton dumps, MSRC-12 sequence+annotation pairs)
produce the same in-memory types.
"""

from __future__ import annotations

import logging
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

EXCLUDE_FILENAME = "exclude.txt"
MSR_ACTION3D_JOINTS = 20

_ACTION3D_NAME = re.compile(r"^a(\d+)_s(\d+)_e(\d+)", re.IGNORECASE)


# --- Core types --------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """One recorded action instance.

    Attributes:
        id: unique instance identifier (file-name safe, no commas).
        subject: integer performer id.
        label: class label; ints and strings (no commas) both allowed.
        frames: float64 positions of shape (num_frames, num_joints, 3).
    """

    id: str
    subject: int
    label: object
    frames: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "subject", int(self.subject))
        frames = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", frames)
        if not self.id or any(c in self.id for c in ",\n"):
            raise ValueError(f"invalid action id {self.id!r}")
        if isinstance(self.label, str) and any(c in self.label for c in ",\n"):
            raise ValueError(f"action {self.id!r}: invalid label {self.label!r}")
        if frames.ndim != 3 or frames.shape[2] != 3:
            raise ValueError(
                f"action {self.id!r}: frames must have shape (F, J, 3), got {frames.shape}"
            )
        if frames.shape[0] < 2:
            raise ValueError(
                f"action {self.id!r}: needs at least 2 frames, got {frames.shape[0]}"
            )
        if frames.shape[1] < 1:
            raise ValueError(f"action {self.id!r}: needs at least 1 joint")
        if not np.isfinite(frames).all():
            raise ValueError(f"action {self.id!r}: non-finite coordinates")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_joints(self) -> int:
        return self.frames.shape[1]


def class_order(labels) -> list:
    """Deterministic total order over class labels: ints first, then strings."""
    return sorted(set(labels), key=lambda c: (isinstance(c, str), c))


@dataclass
class Dataset:
    """A non-empty collection of actions sharing one skeleton topology."""

    actions: list[Action]

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("dataset is empty")
        joints = {a.num_joints for a in self.actions}
        if len(joints) != 1:
            raise ValueError(f"inconsistent joint counts across actions: {sorted(joints)}")
        seen: set[str] = set()
        for a in self.actions:
            if a.id in seen:
                raise ValueError(f"duplicate action id {a.id!r}")
            seen.add(a.id)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    @property
    def joint_count(self) -> int:
        return self.actions[0].num_joints

    @property
    def class_set(self) -> tuple:
        return tuple(class_order(a.label for a in self.actions))

    @property
    def subject_set(self) -> tuple:
        return tuple(sorted({a.subject for a in self.actions}))


# --- Canonical format ---------------------------------------------------------


def _parse_label(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _parse_frame_lines(body: list, num_frames: int, expected: int) -> np.ndarray:
    """Per-line parse of (line number, line) frame lines; errors name the line."""
    frames = np.empty((num_frames, expected))
    have = 0
    for number, line in body:
        if have >= num_frames:
            raise ValueError(f"line {number}: unexpected content after {num_frames} frame lines")
        values = line.split()
        if len(values) != expected:
            raise ValueError(f"line {number}: expected {expected} values, got {len(values)}")
        try:
            frames[have] = [float(v) for v in values]
        except ValueError:
            raise ValueError(f"line {number}: unparseable number") from None
        have += 1
    if have != num_frames:
        raise ValueError(f"expected {num_frames} frame lines, found {have}")
    return frames


def parse_action_file(text: str) -> Action:
    """Parse one canonical action file; errors carry 1-based line numbers."""
    lines = _content_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise ValueError("empty file: missing header line") from None

    fields = [f.strip() for f in header.split(",")]
    if len(fields) != 5:
        raise ValueError(
            f"line {header_no}: header must be 'id,subject,class,num_frames,num_joints', "
            f"got {len(fields)} fields"
        )
    ident, subject_text, label_text, frames_text, joints_text = fields
    if not ident:
        raise ValueError(f"line {header_no}: id must be non-empty")
    try:
        subject = int(subject_text)
    except ValueError:
        raise ValueError(
            f"line {header_no}: subject must be an integer, got {subject_text!r}"
        ) from None
    try:
        num_frames = int(frames_text)
        num_joints = int(joints_text)
    except ValueError:
        raise ValueError(
            f"line {header_no}: num_frames/num_joints must be integers, "
            f"got {frames_text!r}/{joints_text!r}"
        ) from None
    if num_joints < 1:
        raise ValueError(f"line {header_no}: num_joints must be >= 1, got {num_joints}")

    expected = num_joints * 3
    body = list(lines)
    # One conversion for the whole file; numpy parses each token as float()
    # does. A ragged, short or unparseable body is parsed again line by line,
    # which names the first bad line.
    try:
        frames = np.array([line.split() for _, line in body], dtype=np.float64)
    except ValueError:
        frames = None
    if frames is None or frames.shape != (num_frames, expected):
        frames = _parse_frame_lines(body, num_frames, expected)

    return Action(
        id=ident,
        subject=subject,
        label=_parse_label(label_text),
        frames=frames.reshape(num_frames, num_joints, 3),
    )


def serialize_action(action: Action) -> str:
    """Inverse of parse_action_file; floats keep exact round-trip precision."""
    out = [
        f"{action.id},{action.subject},{action.label},"
        f"{action.num_frames},{action.num_joints}"
    ]
    for frame in action.frames:
        out.append(" ".join(repr(float(v)) for v in frame.reshape(-1)))
    return "\n".join(out) + "\n"


def read_exclusion_file(path: Path) -> set[str]:
    ids = set()
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            ids.add(line)
    return ids


def _exclusions_for(directory: Path, apply_exclusions: bool) -> set[str]:
    path = directory / EXCLUDE_FILENAME
    if apply_exclusions and path.is_file():
        excluded = read_exclusion_file(path)
        logger.info("excluding %d instance ids listed in %s", len(excluded), path)
        return excluded
    return set()


def load_canonical_dataset(directory, apply_exclusions: bool = True) -> Dataset:
    """Load every canonical ``*.txt`` action file under `directory`."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"dataset directory not found: {directory}")
    paths = sorted(p for p in directory.glob("*.txt") if p.name != EXCLUDE_FILENAME)
    if not paths:
        raise ValueError(f"no canonical action files (*.txt) in {directory}")
    excluded = _exclusions_for(directory, apply_exclusions)
    actions = []
    for path in paths:
        try:
            action = parse_action_file(path.read_text())
        except ValueError as e:
            raise ValueError(f"{path.name}: {e}") from None
        if action.id not in excluded:
            actions.append(action)
    if not actions:
        raise ValueError(f"all actions in {directory} are excluded")
    return Dataset(actions)


def write_canonical_dataset(dataset: Dataset, directory) -> list[Path]:
    """Write one ``<id>.txt`` canonical file per action; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for action in dataset.actions:
        if "/" in action.id or "\\" in action.id:
            raise ValueError(f"action id {action.id!r} is not file-name safe")
        path = directory / f"{action.id}.txt"
        path.write_text(serialize_action(action))
        paths.append(path)
    return paths


# --- MSR-Action3D adapter ------------------------------------------------------


def load_msr_action3d(directory, apply_exclusions: bool = True) -> Dataset:
    """Load raw MSR-Action3D skeleton dumps.

    Files are named ``a{class}_s{subject}_e{episode}*``; each line is one
    joint record ``x y z confidence`` and every 20 consecutive records form
    one frame. The confidence column is dropped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"dataset directory not found: {directory}")
    excluded = _exclusions_for(directory, apply_exclusions)
    actions = []
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        m = _ACTION3D_NAME.match(path.name)
        if m is None:
            continue
        try:
            records = np.loadtxt(path, ndmin=2)
        except ValueError as e:
            raise ValueError(f"{path.name}: {e}") from None
        if records.shape[1] != 4:
            raise ValueError(
                f"{path.name}: expected 4 values per joint record, got {records.shape[1]}"
            )
        if records.shape[0] % MSR_ACTION3D_JOINTS != 0:
            raise ValueError(
                f"{path.name}: {records.shape[0]} records is not a multiple of "
                f"{MSR_ACTION3D_JOINTS} joints"
            )
        ident = path.stem
        if ident in excluded:
            continue
        actions.append(
            Action(
                id=ident,
                subject=int(m.group(2)),
                label=int(m.group(1)),
                frames=records[:, :3].reshape(-1, MSR_ACTION3D_JOINTS, 3),
            )
        )
    if not actions:
        raise ValueError(f"no MSR-Action3D files (a*_s*_e*) found in {directory}")
    return Dataset(actions)


# --- MSRC-12 adapter ------------------------------------------------------------


@dataclass(frozen=True)
class Msrc12Layout:
    """Column layout and instance-segmentation rule for MSRC-12 style corpora.

    Sequence files are numeric tables, one body frame per line with
    `values_per_frame` values (whitespace or comma separated). Joint j's
    coordinates live at columns ``first_joint_column + j * joint_stride +
    coord_offsets``; everything else (timestamps, tracking state) is ignored.

    Each sequence file ``<stem><sequence_suffix>`` needs an annotation file
    ``<stem><annotation_suffix>`` with one instance marker per line,
    ``frame_index;class_label``. The extent rule turns markers into frame
    ranges: ``span`` runs from just after the previous marker (or the start)
    through the marked frame; ``window`` takes the marked frame
    +/- `window_radius`, clipped to the sequence.
    """

    values_per_frame: int = 81
    timestamp_column: int = 0
    first_joint_column: int = 1
    joint_stride: int = 4
    coord_offsets: tuple[int, int, int] = (0, 1, 2)
    joint_count: int = 20
    sequence_suffix: str = ".csv"
    annotation_suffix: str = ".tags"
    extent: str = "span"
    window_radius: int = 15
    subject_pattern: str = r"[Pp](\d+)"

    def __post_init__(self) -> None:
        if self.extent not in ("span", "window"):
            raise ValueError(f"extent must be 'span' or 'window', got {self.extent!r}")
        if self.window_radius < 1:
            raise ValueError(f"window_radius must be >= 1, got {self.window_radius}")
        if self.joint_count < 1:
            raise ValueError(f"joint_count must be >= 1, got {self.joint_count}")
        top = self.first_joint_column + (self.joint_count - 1) * self.joint_stride + max(
            self.coord_offsets
        )
        if top >= self.values_per_frame:
            raise ValueError(
                f"joint columns run to {top} but rows only have "
                f"{self.values_per_frame} values"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "Msrc12Layout":
        known = {k: v for k, v in data.items() if not k.startswith("_")}
        fields = set(cls.__dataclass_fields__)
        unknown = set(known) - fields
        if unknown:
            raise ValueError(f"unknown layout keys: {sorted(unknown)}")
        if "coord_offsets" in known:
            known["coord_offsets"] = tuple(known["coord_offsets"])
        return cls(**known)


def _parse_numeric_table(path: Path, width: int) -> np.ndarray:
    rows = []
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.replace(",", " ").strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != width:
            raise ValueError(
                f"{path.name}: line {number}: expected {width} values, got {len(tokens)}"
            )
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            raise ValueError(f"{path.name}: line {number}: unparseable number") from None
    if not rows:
        raise ValueError(f"{path.name}: no frames")
    return np.asarray(rows)


def _parse_annotations(path: Path) -> list[tuple[int, object]]:
    markers = []
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in (line.split(";") if ";" in line else line.split(None, 1))]
        if len(parts) != 2 or not parts[1]:
            raise ValueError(
                f"{path.name}: line {number}: expected 'frame;label', got {line!r}"
            )
        try:
            frame = int(parts[0])
        except ValueError:
            raise ValueError(
                f"{path.name}: line {number}: frame index must be an integer"
            ) from None
        markers.append((frame, _parse_label(parts[1])))
    return sorted(markers)


def load_msrc12(directory, layout: Msrc12Layout | None = None,
                apply_exclusions: bool = True) -> Dataset:
    """Load an MSRC-12 style corpus: numeric sequences segmented by annotations."""
    layout = layout or Msrc12Layout()
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"dataset directory not found: {directory}")
    seq_paths = sorted(directory.glob(f"*{layout.sequence_suffix}"))
    if not seq_paths:
        raise ValueError(
            f"no sequence files (*{layout.sequence_suffix}) found in {directory}"
        )
    excluded = _exclusions_for(directory, apply_exclusions)
    subject_re = re.compile(layout.subject_pattern)
    offsets = np.asarray(layout.coord_offsets)
    columns = (
        layout.first_joint_column
        + np.arange(layout.joint_count)[:, None] * layout.joint_stride
        + offsets[None, :]
    )

    actions = []
    for seq_path in seq_paths:
        stem = seq_path.name[: -len(layout.sequence_suffix)]
        ann_path = directory / f"{stem}{layout.annotation_suffix}"
        if not ann_path.is_file():
            raise ValueError(f"{seq_path.name}: missing annotation file {ann_path.name}")
        table = _parse_numeric_table(seq_path, layout.values_per_frame)
        positions = table[:, columns]  # (frames, joints, 3)
        total = positions.shape[0]

        markers = _parse_annotations(ann_path)
        if not markers:
            warnings.warn(f"{ann_path.name}: empty annotation file, sequence skipped")
            continue
        m = subject_re.search(stem)
        if m is None:
            raise ValueError(
                f"{seq_path.name}: cannot find subject field matching "
                f"{layout.subject_pattern!r}"
            )
        subject = int(m.group(1))

        previous = -1
        for k, (frame, label) in enumerate(markers, start=1):
            if not 0 <= frame < total:
                raise ValueError(
                    f"{ann_path.name}: annotation frame {frame} outside sequence "
                    f"of {total} frames"
                )
            if layout.extent == "span":
                start, stop = previous + 1, frame + 1
                previous = frame
            else:
                start = max(0, frame - layout.window_radius)
                stop = min(total, frame + layout.window_radius + 1)
            if stop - start < 2:
                raise ValueError(
                    f"{ann_path.name}: annotation at frame {frame} yields an "
                    f"instance with fewer than 2 frames"
                )
            ident = f"{stem}_i{k:03d}"
            if ident in excluded:
                continue
            actions.append(
                Action(
                    id=ident,
                    subject=subject,
                    label=label,
                    frames=positions[start:stop].copy(),
                )
            )
    if not actions:
        raise ValueError(f"no action instances produced from {directory}")
    return Dataset(actions)


# --- Filters and splits ---------------------------------------------------------


def filter_action_set(dataset: Dataset, labels) -> Dataset:
    """Keep only actions whose label is in `labels`; warns about unknown ones."""
    wanted = list(labels)
    present = set(a.label for a in dataset.actions)
    for label in wanted:
        if label not in present:
            warnings.warn(f"class {label!r} not present in dataset, ignoring")
    wanted_set = set(wanted)
    kept = [a for a in dataset.actions if a.label in wanted_set]
    if not kept:
        raise ValueError(f"no actions remain after filtering to classes {wanted!r}")
    return Dataset(kept)


def split_cross_subject(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Random half/half partition of subjects (train gets the odd one out)."""
    subjects = list(dataset.subject_set)
    if len(subjects) < 2:
        raise ValueError(f"cross-subject split needs >= 2 subjects, got {len(subjects)}")
    perm = np.random.default_rng(seed).permutation(len(subjects))
    n_train = (len(subjects) + 1) // 2
    train_subjects = {subjects[i] for i in perm[:n_train]}
    train = [a for a in dataset.actions if a.subject in train_subjects]
    test = [a for a in dataset.actions if a.subject not in train_subjects]
    return Dataset(train), Dataset(test)


def splits_loso(dataset: Dataset) -> list[tuple[Dataset, Dataset]]:
    """One (train, test) fold per subject, ordered by subject id."""
    subjects = list(dataset.subject_set)
    if len(subjects) < 2:
        raise ValueError(f"leave-one-subject-out needs >= 2 subjects, got {len(subjects)}")
    folds = []
    for held_out in subjects:
        test = [a for a in dataset.actions if a.subject == held_out]
        train = [a for a in dataset.actions if a.subject != held_out]
        folds.append((Dataset(train), Dataset(test)))
    return folds
