"""Skeletal action corpora: canonical files, dataset adapters, filters, splits.

The canonical on-disk form is one text file per action instance::

    # optional comments
    id,subject,class,num_frames,num_joints
    x1 y1 z1 x2 y2 z2 ...        (num_joints * 3 floats, num_frames lines)

A dataset is a directory of such files plus an optional ``exclude.txt``
(instance ids to drop, one per line). Adapters for the two supported raw
corpora (MSR-Action3D skeleton dumps, MSRC-12 sequence+annotation pairs)
produce the same in-memory types. Each format is read by a private generator,
one file (one MSRC-12 sequence) at a time, which `dam.evaluation.window_table`
consumes as it goes; the public loaders hold its actions in a Dataset.
"""

from __future__ import annotations

import ctypes
import functools
import io
import locale
import logging
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _native

logger = logging.getLogger(__name__)

EXCLUDE_FILENAME = "exclude.txt"
MSR_ACTION3D_JOINTS = 20

_ACTION3D_NAME = re.compile(r"^a(\d+)_s(\d+)_e(\d+)", re.IGNORECASE)


# --- Core types --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
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


def _label_key(label) -> tuple:
    return (isinstance(label, str), label)


def class_order(labels) -> list:
    """Deterministic total order over class labels: ints first, then strings."""
    return sorted(set(labels), key=_label_key)


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


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based number, stripped text) of each line that is not blank or a # comment."""
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((number, line))
    return lines


def _convert_lines(lines: list, width: int) -> np.ndarray:
    """A (len(lines), width) float64 table from (line number, line) pairs.

    Each token is parsed by float(); an error names the first bad line.
    """
    rows = []
    for number, line in lines:
        values = line.split()
        if len(values) != width:
            raise ValueError(f"line {number}: expected {width} values, got {len(values)}")
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            raise ValueError(f"line {number}: unparseable number") from None
    return np.array(rows, dtype=np.float64).reshape(len(lines), width)


@functools.lru_cache(maxsize=None)
def _powers_of_five() -> np.ndarray:
    """The compiled reader's (651, 2) uint64 table: 5**q for q in [-342, 308].

    Each entry is 5**q scaled by a power of two into [2**127, 2**128), high
    word first: truncated for q >= 0, and for q < 0 the quotient of a power
    of two by 5**-q plus one, as Lemire's table generator makes it, so that
    Eisel-Lemire needs no fallback.
    """
    words = []
    for q in range(-342, 309):
        power = 5 ** abs(q)
        bits = power.bit_length()
        if q >= 0:
            scaled = power << (128 - bits) if bits < 128 else power >> (bits - 128)
        elif q >= -27:
            scaled = (1 << (bits + 127)) // power + 1
        else:
            scaled = (1 << (2 * bits + 128)) // power + 1
            scaled >>= scaled.bit_length() - 128
        assert scaled.bit_length() == 128
        words.append((scaled >> 64, scaled & (2**64 - 1)))
    return np.array(words, dtype=np.uint64)


def _table_reader():
    """The compiled table reader when `_table_reader.c` is compiled and loads, else None."""
    size = ctypes.c_int64
    reader = _native.function("_table_reader.c", "dam_read_table", size, ctypes.c_void_p,
                              ctypes.c_char_p, size, size, size, size, ctypes.c_void_p)
    return None if reader is None else functools.partial(reader, _powers_of_five().ctypes.data)


@functools.lru_cache(maxsize=None)
def _ryu_tables() -> np.ndarray:
    """The compiled writer's (668, 2) uint64 table, high word first.

    The first 342 entries hold, for q in [0, 342), 2**(b + 124) // 5**q + 1,
    where b is the bit length of 5**q; the other 326, for i in [0, 326),
    5**i scaled by a power of two to 125 bits, truncated. These are Ryu's
    DOUBLE_POW5_INV_SPLIT and DOUBLE_POW5_SPLIT.
    """
    words = []
    for q in range(342):
        power = 5**q
        words.append((1 << (power.bit_length() + 124)) // power + 1)
    for i in range(326):
        shift = (5**i).bit_length() - 125
        words.append(5**i >> shift if shift >= 0 else 5**i << -shift)
    return np.array([(w >> 64, w & (2**64 - 1)) for w in words], dtype=np.uint64)


# The most bytes repr() gives a finite float ("-2.2250738585072014e-308"),
# and the separator or line end after it.
_VALUE_BYTES = 25


def _table_writer():
    """The compiled table writer when `_table_reader.c` is compiled and loads, else None."""
    size = ctypes.c_int64
    writer = _native.function("_table_reader.c", "dam_write_table", size, ctypes.c_void_p,
                              ctypes.c_void_p, size, size, ctypes.c_void_p)
    return None if writer is None else functools.partial(writer, _ryu_tables().ctypes.data)


def _frame_lines(frames: np.ndarray) -> bytes:
    """The frame lines of a canonical file: one line per frame, its
    coordinates as repr() writes them, joined by ' ' and ended by '\\n'.

    The compiled writer gives the bytes of the Python path below, which is
    its test oracle and runs when it is not compiled.
    """
    table = frames.reshape(len(frames), -1)
    writer = _table_writer()
    if writer is not None:
        table = np.ascontiguousarray(table, dtype=np.float64)
        out = np.empty(table.size * _VALUE_BYTES + len(table), dtype=np.uint8)
        count = writer(table.ctypes.data, *table.shape, out.ctypes.data)
        if count >= 0:
            return out[:count].tobytes()
    return "".join([" ".join(map(repr, row)) + "\n" for row in table.tolist()]).encode("ascii")


def _compiled_table(data: bytes, width: int, skip: int, rows: int | None,
                    reader) -> np.ndarray | None:
    """The (n, width) table of the content lines of a file's bytes `data` after
    the first `skip`, from `reader`, the compiled reader (`_table_reader()`), or
    None when it is None or cannot give the table.

    The reader declines every byte outside ASCII. `rows`, when given, is the
    number of rows it must have.
    """
    if reader is None:
        return None
    # A row takes at least 2 * width - 1 bytes and a line break, which bounds
    # the rows the bytes can hold.
    capacity = (len(data) + 1) // (2 * width) if width > 0 else 0
    if rows is not None:
        capacity = rows if 0 <= rows <= capacity else 0
    if capacity == 0:
        return None
    table = np.empty((capacity, width))
    count = reader(data, len(data), skip, width, capacity, table.ctypes.data)
    if count < 0 or (rows is not None and count != rows):
        return None
    return table if count == capacity else table[:count].copy()


# One line of a file's bytes and its end: \n, \r\n, \r or the end of the bytes.
_LINE = re.compile(rb"([^\r\n]*)(?:\r\n|\r|\n|\Z)")


def _header_line(data: bytes) -> tuple[int, str] | None:
    """(1-based number, stripped text) of the first line of `data` that is not
    blank or a # comment, or None when there is none or it is not ASCII.

    Lines are split and stripped at ASCII bytes only. The text's
    `_content_lines` finds the same line unless a byte before it or in it is
    \\v, \\f, \\x1c-\\x1f or outside ASCII, and the compiled reader declines
    any file that holds one of those.
    """
    for number, match in enumerate(_LINE.finditer(data), start=1):
        line = match.group(1).strip()
        if line and not line.startswith(b"#"):
            return (number, line.decode("ascii")) if line.isascii() else None
    return None


def _header_fields(number: int, header: str) -> tuple:
    """(id, subject, label, num_frames, num_joints) of header line `number`."""
    fields = [f.strip() for f in header.split(",")]
    if len(fields) != 5:
        raise ValueError(
            f"line {number}: header must be 'id,subject,class,num_frames,num_joints', "
            f"got {len(fields)} fields"
        )
    ident, subject_text, label_text, frames_text, joints_text = fields
    if not ident:
        raise ValueError(f"line {number}: id must be non-empty")
    try:
        subject = int(subject_text)
    except ValueError:
        raise ValueError(
            f"line {number}: subject must be an integer, got {subject_text!r}"
        ) from None
    try:
        num_frames = int(frames_text)
        num_joints = int(joints_text)
    except ValueError:
        raise ValueError(
            f"line {number}: num_frames/num_joints must be integers, "
            f"got {frames_text!r}/{joints_text!r}"
        ) from None
    if num_joints < 1:
        raise ValueError(f"line {number}: num_joints must be >= 1, got {num_joints}")
    return ident, subject, _parse_label(label_text), num_frames, num_joints


def _action(fields: tuple, table: np.ndarray) -> Action:
    ident, subject, label, num_frames, num_joints = fields
    return Action(id=ident, subject=subject, label=label,
                  frames=table.reshape(num_frames, num_joints, 3))


def parse_action_file(text: str | bytes) -> Action:
    """Parse one canonical action file, given as its text or as its bytes.

    Errors carry 1-based line numbers. When the compiled reader loads, it
    reads the frames straight from the bytes, or from the text's ASCII
    bytes, after a header found and parsed on those bytes. Any file it does
    not read, an erroneous one included, takes the text path, which splits
    the text into lines once; bytes are first decoded as `Path.read_text`
    decodes a file, so a file gives the same action or error either way.
    """
    reader = _table_reader()
    if reader is not None:
        # A text that is not ASCII is left to the text path.
        data = text if isinstance(text, bytes) else text.encode() if text.isascii() else b""
        found = _header_line(data)
        try:
            fields = None if found is None else _header_fields(*found)
        except ValueError:
            fields = None
        if fields is not None:
            _, _, _, num_frames, num_joints = fields
            table = _compiled_table(data, num_joints * 3, 1, num_frames, reader)
            if table is not None:
                return _action(fields, table)
    if isinstance(text, bytes):
        text = _file_text(text)

    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty file: missing header line")
    fields = _header_fields(*lines[0])
    _, _, _, num_frames, num_joints = fields
    body, count = lines[1:], max(num_frames, 0)
    table = _convert_lines(body[:count], num_joints * 3)
    if len(body) > count:
        raise ValueError(
            f"line {body[count][0]}: unexpected content after {num_frames} frame lines")
    if len(body) != num_frames:
        raise ValueError(f"expected {num_frames} frame lines, found {len(body)}")
    return _action(fields, table)


def _file_text(data: bytes) -> str:
    """`data` decoded as `Path.read_text` decodes a file: the locale's encoding,
    universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data)).read()


def _header(action: Action) -> str:
    """`action`'s header line, which must read back as one content line with
    the action's fields."""
    fields = (action.id, action.subject, action.label, action.num_frames, action.num_joints)
    line = ",".join(map(str, fields))
    try:
        same = _content_lines(line) == [(1, line)] and _header_fields(1, line) == fields
    except ValueError:
        same = False
    if not same:
        raise ValueError(f"action {action.id!r}: header {line!r} does not read back as written")
    return line + "\n"


def serialize_action(action: Action) -> str:
    """Inverse of parse_action_file: the header line, then one line per frame.

    Each coordinate is written as repr() writes it, so it reads back as the
    same float. The compiled writer (`dam_write_table`, Ryu's shortest
    round-trip digits laid out by repr()'s rule) gives the same text as
    the Python path, which runs when it is not compiled.
    """
    return _header(action) + _frame_lines(action.frames).decode("ascii")


def _read_file_table(path: Path, data: bytes, width: int) -> np.ndarray:
    """The (n, width) float64 table of the content lines of `path`'s bytes
    `data`, which must have a row; errors name the file.

    The compiled reader reads the table when it loads and accepts the bytes;
    any others are decoded as `Path.read_text` decodes a file and go to
    `_content_lines`, which gives the same values, as float() parses them,
    or the error naming the first bad line.
    """
    table = _compiled_table(data, width, 0, None, _table_reader())
    try:
        if table is None:
            table = _convert_lines(_content_lines(_file_text(data)), width)
    except ValueError as e:
        raise ValueError(f"{path.name}: {e}") from None
    if not len(table):
        raise ValueError(f"{path.name}: no data lines")
    return table


def read_exclusion_file(path: Path) -> set[str]:
    return {line for _, line in _content_lines(Path(path).read_text())}


def _exclusions_for(directory: Path, apply_exclusions: bool) -> set[str]:
    path = directory / EXCLUDE_FILENAME
    if apply_exclusions and path.is_file():
        excluded = read_exclusion_file(path)
        logger.info("excluding %d instance ids listed in %s", len(excluded), path)
        return excluded
    return set()


def drop_excluded(actions, directory) -> Dataset:
    """A Dataset of `actions` less the ids that `directory`'s exclusion file lists."""
    excluded = _exclusions_for(Path(directory), apply_exclusions=True)
    kept = [a for a in actions if a.id not in excluded]
    if not kept:
        raise ValueError(f"all actions in {directory} are excluded")
    return Dataset(kept)


def _canonical_files(directory: Path) -> list[Path]:
    """The sorted regular ``*.txt`` files of `directory` bar the exclusion file; never empty."""
    paths = sorted(p for p in directory.glob("*.txt")
                   if p.name != EXCLUDE_FILENAME and p.is_file())
    if not paths:
        raise ValueError(f"no canonical action files (*.txt) in {directory}")
    return paths


def _dataset_directory(directory) -> Path:
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"dataset directory not found: {directory}")
    return directory


def _canonical_actions(directory, apply_exclusions: bool = True) -> tuple:
    """(file count, generator of (file name, action) pairs) of the canonical
    files under `directory`, parsed one at a time; excluded ids are skipped."""
    directory = _dataset_directory(directory)
    paths = _canonical_files(directory)
    excluded = _exclusions_for(directory, apply_exclusions)

    def actions():
        kept = False
        for path in paths:
            try:
                action = parse_action_file(path.read_bytes())
            except ValueError as e:
                raise ValueError(f"{path.name}: {e}") from None
            if action.id not in excluded:
                kept = True
                yield path.name, action
        if not kept:
            raise ValueError(f"all actions in {directory} are excluded")
    return len(paths), actions()


def load_canonical_dataset(directory, apply_exclusions: bool = True) -> Dataset:
    """Load every canonical ``*.txt`` action file under `directory` (`_canonical_actions`)."""
    return Dataset([action for _, action in _canonical_actions(directory, apply_exclusions)[1]])


def write_canonical_dataset(dataset: Dataset, directory) -> list[Path]:
    """Write one ``<id>.txt`` canonical file per action; returns the paths.

    Nothing is written when an id holds a path separator or would name the
    exclusion file, which the loader reads as a list of ids to drop, or when
    a header would not read back as its action's fields.
    """
    for action in dataset.actions:
        if "/" in action.id or "\\" in action.id:
            raise ValueError(f"action id {action.id!r} is not file-name safe")
        if f"{action.id}.txt" == EXCLUDE_FILENAME:
            raise ValueError(f"action id {action.id!r} names the exclusion file")
    # Each header is encoded as `Path.write_text` would encode it.
    encoding = locale.getpreferredencoding(False)
    headers = [_header(action).encode(encoding) for action in dataset.actions]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"{action.id}.txt" for action in dataset.actions]
    for action, header, path in zip(dataset.actions, headers, paths):
        path.write_bytes(header + _frame_lines(action.frames))
    return paths


# --- MSR-Action3D adapter ------------------------------------------------------


def _action3d_actions(directory, apply_exclusions: bool = True) -> tuple:
    """(file count, generator of (file name, action) pairs) of the MSR-Action3D
    files under `directory` bar excluded ones, read one at a time."""
    directory = _dataset_directory(directory)
    paths = [p for p in sorted(directory.iterdir())
             if p.is_file() and _ACTION3D_NAME.match(p.name)]
    if not paths:
        raise ValueError(f"no MSR-Action3D files (a*_s*_e*) found in {directory}")
    excluded = _exclusions_for(directory, apply_exclusions)
    paths = [p for p in paths if p.stem not in excluded]
    if not paths:
        raise ValueError(f"all actions in {directory} are excluded")

    def actions():
        for path in paths:
            records = _read_file_table(path, path.read_bytes(), 4)
            if records.shape[0] % MSR_ACTION3D_JOINTS != 0:
                raise ValueError(f"{path.name}: {records.shape[0]} records is not a multiple "
                                 f"of {MSR_ACTION3D_JOINTS} joints")
            label, subject = _ACTION3D_NAME.match(path.name).group(1, 2)
            yield path.name, Action(path.stem, int(subject), int(label),
                                    records[:, :3].reshape(-1, MSR_ACTION3D_JOINTS, 3))
    return len(paths), actions()


def load_msr_action3d(directory, apply_exclusions: bool = True) -> Dataset:
    """Load raw MSR-Action3D skeleton dumps (`_action3d_actions`).

    Files are named ``a{class}_s{subject}_e{episode}*``; each line is one
    joint record ``x y z confidence`` and every 20 consecutive records form
    one frame. The confidence column is dropped.
    """
    return Dataset([action for _, action in _action3d_actions(directory, apply_exclusions)[1]])


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
        # A negative column would index from the end of each row.
        for name in ("first_joint_column", "joint_stride"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if min(self.coord_offsets) < 0:
            raise ValueError(f"coord_offsets must be >= 0, got {list(self.coord_offsets)}")
        top = self.first_joint_column + (self.joint_count - 1) * self.joint_stride + max(
            self.coord_offsets
        )
        if top >= self.values_per_frame:
            raise ValueError(
                f"joint columns run to {top} but rows only have "
                f"{self.values_per_frame} values"
            )


def _parse_annotations(path: Path) -> list[tuple[int, object]]:
    markers = []
    for number, line in _content_lines(path.read_text()):
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
    return sorted(markers, key=lambda marker: (marker[0], _label_key(marker[1])))


def _msrc12_actions(directory, layout: Msrc12Layout | None = None,
                    apply_exclusions: bool = True) -> tuple:
    """(count, generator of (sequence file name, action) pairs) of the MSRC-12
    style corpus under `directory`: one sequence read at a time, its excluded
    instances skipped. The annotations are read first, so `count` is that of
    the instances kept; an annotation file that fails is reported when the
    generator reaches its sequence, so the first bad file in sorted order is."""
    layout = layout or Msrc12Layout()
    directory = _dataset_directory(directory)
    seq_paths = sorted(p for p in directory.glob(f"*{layout.sequence_suffix}") if p.is_file())
    if not seq_paths:
        raise ValueError(f"no sequence files (*{layout.sequence_suffix}) found in {directory}")
    excluded = _exclusions_for(directory, apply_exclusions)
    subject_re = re.compile(layout.subject_pattern)
    sequences, failure = [], None  # (path, stem, annotation path, markers) up to a failure
    for seq_path in seq_paths:
        stem = seq_path.name[: -len(layout.sequence_suffix)]
        ann_path = directory / f"{stem}{layout.annotation_suffix}"
        try:
            if not ann_path.is_file():
                raise ValueError(f"{seq_path.name}: missing annotation file {ann_path.name}")
            sequences.append((seq_path, stem, ann_path, _parse_annotations(ann_path)))
        except (OSError, ValueError) as e:
            failure = e
            break
    count = sum(f"{stem}_i{k:03d}" not in excluded
                for _, stem, _, markers in sequences for k in range(1, len(markers) + 1))

    def actions():
        columns = None  # built once a table has passed the width check
        # Whether an action was yielded, and a sequence skipped for its excluded instances.
        produced = dropped = False
        for seq_path, stem, ann_path, markers in sequences:
            ids = [f"{stem}_i{k:03d}" for k in range(1, len(markers) + 1)]
            if ids and excluded.issuperset(ids):  # every instance excluded: table unread
                dropped = True
                continue
            data = seq_path.read_bytes().replace(b",", b" ")
            table = _read_file_table(seq_path, data, layout.values_per_frame)
            if columns is None:
                columns = (
                    layout.first_joint_column
                    + np.arange(layout.joint_count)[:, None] * layout.joint_stride
                    + np.asarray(layout.coord_offsets)[None, :]
                )
            positions = table[:, columns]  # (frames, joints, 3)
            total = positions.shape[0]

            if not markers:
                warnings.warn(f"{ann_path.name}: empty annotation file, sequence skipped")
                continue
            m = subject_re.search(stem)
            if m is None:
                raise ValueError(f"{seq_path.name}: cannot find subject field matching "
                                 f"{layout.subject_pattern!r}")
            subject = int(m.group(1))

            previous = -1
            for ident, (frame, label) in zip(ids, markers):
                if not 0 <= frame < total:
                    raise ValueError(f"{ann_path.name}: annotation frame {frame} outside "
                                     f"sequence of {total} frames")
                if layout.extent == "span":
                    start, stop = previous + 1, frame + 1
                    previous = frame
                else:
                    start = max(0, frame - layout.window_radius)
                    stop = min(total, frame + layout.window_radius + 1)
                if stop - start < 2:
                    raise ValueError(f"{ann_path.name}: annotation at frame {frame} yields "
                                     f"an instance with fewer than 2 frames")
                if ident in excluded:
                    continue
                produced = True
                yield seq_path.name, Action(ident, subject, label, positions[start:stop].copy())
        if failure is not None:
            raise failure
        if not produced:
            raise ValueError(f"all actions in {directory} are excluded" if dropped
                             else f"no action instances produced from {directory}")
    return count, actions()


def load_msrc12(directory, layout: Msrc12Layout | None = None,
                apply_exclusions: bool = True) -> Dataset:
    """Load an MSRC-12 style corpus: numeric sequences segmented by annotations."""
    return Dataset([action for _, action in _msrc12_actions(directory, layout,
                                                            apply_exclusions)[1]])


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
