"""Tests for the compiled pass from canonical files to window rows.

`window_table` reads `CanonicalFiles` through the pass (`dam_windows` in
`_preprocess.c`); its oracle is the per-file path, the same files iterated
(each parsed by `parse_action_file`, then `preprocess_action`), which must
give the same records and table bytes, or raise the same error, on one
thread, on two, and with no compiled library at all.
"""

import contextlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dam import _native, evaluation
from dam.dataset import (
    Action,
    CanonicalFiles,
    Dataset,
    _canonical_actions,
    write_canonical_dataset,
)
from dam.evaluation import window_table
from dam.preprocess import PreprocessParams

MODES = ["one thread", "two threads", "no compiler"]


@contextlib.contextmanager
def _mode(mode: str, group: int = evaluation._FILE_GROUP):
    """`window_table` reads with the pass on one or two threads, or with no
    compiled library; the pass takes `group` files per call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_FILE_GROUP", group)
        if mode == "no compiler":
            patch.setattr(_native, "function", lambda *args: None)
        else:
            threads = 1 if mode == "one thread" else 2
            patch.setattr(evaluation, "_thread_count", lambda *args, **kwargs: threads)
        yield


def _outcome(call) -> tuple:
    """The records and the shape and bytes of each table `call()` returns, or
    the type and message of the error it raises."""
    try:
        with np.errstate(all="ignore"):  # the numpy chain overflows on its way to an error
            records, tables = call()
    except (ValueError, OSError) as e:
        return type(e), str(e)
    return [tuple(r) for r in records], {p: (t.shape, t.tobytes()) for p, t in tables.items()}


def _per_file(directory: Path, params) -> tuple:
    """`_outcome` of the per-file path over the canonical files of `directory`."""
    count, files = _canonical_actions(directory)
    return _outcome(lambda: window_table((count, iter(files)), params))


# How a drawn file is written: as `write_canonical_dataset` writes it, or
# edited so that the compiled reader declines it but Python reads it, or
# malformed (each after "long header" is refused by the per-file path).
KINDS = ["plain", "plain", "plain", "crlf", "comments", "non-ASCII comment", "long header",
         "extra line", "bad header", "nan", "missing line", "other joints", "huge"]


def _write(directory: Path, i: int, frames: np.ndarray, kind: str) -> str:
    """Writes action i's file, of `kind`; returns its id."""
    ident = f"a{i:02d}"
    if kind == "other joints":
        frames = np.concatenate([frames, frames[:, :1]], axis=1)
    if kind == "huge":
        frames = frames * 1e150
    label = i % 2 if i % 3 else "walk"
    write_canonical_dataset(Dataset([Action(ident, i % 3, label, frames)]), directory)
    path = directory / f"{ident}.txt"
    header, body = path.read_bytes().split(b"\n", 1)
    edits = {
        "crlf": lambda: (header + b"\n" + body).replace(b"\n", b"\r\n"),
        "comments": lambda: b" # a comment\n\n\t\r\n" + header + b"  \n# between\n" + body,
        "non-ASCII comment": lambda: "# café\n".encode() + header + b"\n" + body,
        # Blanks around a field are stripped, and the pass declines a header
        # longer than the slot it copies it to.
        "long header": lambda: header.replace(b",", b"," + b" " * 600, 1) + b"\n" + body,
        "extra line": lambda: header + b"\n" + body + b"1 2 3\n",
        "bad header": lambda: b"not a header\n" + body,
        "nan": lambda: header + b"\nnan" + body[body.index(b" "):],
        "missing line": lambda: header + b"\n" + body[:body.rindex(b"\n", 0, -1) + 1],
    }
    if kind in edits:
        path.write_bytes(edits[kind]())
    return ident


@st.composite
def _corpora(draw):
    """(files as (raw frames, kind), excluded file indices, params, group size)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joints = draw(st.integers(1, 20))
    files = []
    for _ in range(draw(st.integers(1, 6))):
        steps = draw(st.integers(2, 30))
        frames = np.cumsum(rng.normal(size=(steps, joints, 3)), axis=0)
        frames *= draw(st.sampled_from([1.0, 1e-3, 1e4]))
        frames += rng.normal(size=frames.shape) * draw(st.sampled_from([0.0, 0.1]))
        files.append((frames, draw(st.sampled_from(KINDS))))
    excluded = draw(st.sets(st.integers(0, len(files) - 1)))
    params = []
    for _ in range(draw(st.integers(1, 2))):
        count = draw(st.integers(2, 30))
        params.append(PreprocessParams(
            frames=count, window=draw(st.integers(1, count - 1)),
            smoothing_sigma=draw(st.sampled_from([0.0, 1.0, 2.0])),
            smoothing_radius=draw(st.integers(0, 3))))
    return files, excluded, params, draw(st.sampled_from([1, 2, 256]))


class TestPassMatchesThePerFilePath:
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(corpus=_corpora())
    def test_same_rows_or_error(self, mode, corpus):
        files, excluded, params, group = corpus
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            ids = [_write(directory, i, frames, kind) for i, (frames, kind) in enumerate(files)]
            (directory / "exclude.txt").write_text("".join(f"{ids[i]}\n" for i in excluded))
            want = _per_file(directory, params)
            with _mode(mode, group):
                assert _outcome(lambda: window_table(_canonical_actions(directory), params)) == want

    @pytest.mark.parametrize("mode", MODES)
    def test_a_paper_shape_corpus(self, mode, tmp_path):
        data = Dataset([Action(f"b{i:03d}", i % 10, i % 6, frames) for i, frames in enumerate(
            np.cumsum(np.random.default_rng(3).normal(size=(40, 45, 20, 3)), axis=1))])
        write_canonical_dataset(data, tmp_path)
        params = [PreprocessParams(frames=25, window=3), PreprocessParams(frames=25, window=1)]
        want = _per_file(tmp_path, params)
        assert isinstance(want[0], list) and len(want[0]) == 40
        with _mode(mode, group=16):
            assert _outcome(lambda: window_table(_canonical_actions(tmp_path), params)) == want

    def test_a_file_gone_before_it_is_read_raises_as_the_per_file_path(self, tmp_path):
        frames = np.cumsum(np.random.default_rng(0).normal(size=(3, 10, 2, 3)), axis=1)
        for i in range(3):
            _write(tmp_path, i, frames[i], "plain")
        files = CanonicalFiles(tuple((p.name, p) for p in sorted(tmp_path.glob("*.txt"))))
        files.files[1][1].unlink()
        params = [PreprocessParams(frames=8, window=2)]
        want = _outcome(lambda: window_table((3, iter(files)), params))
        assert want[0] is FileNotFoundError
        for mode in MODES:
            with _mode(mode):
                assert _outcome(lambda: window_table((3, files), params)) == want

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_more_files_than_the_count_are_refused_by_name(self, tmp_path, count):
        # The pass writes only into the rows the tables have room for.
        frames = np.cumsum(np.random.default_rng(1).normal(size=(3, 10, 2, 3)), axis=1)
        for i in range(3):
            _write(tmp_path, i, frames[i], "plain")
        files = CanonicalFiles(tuple((p.name, p) for p in sorted(tmp_path.glob("*.txt"))))
        params = [PreprocessParams(frames=8, window=2)]
        want = _outcome(lambda: window_table((count, iter(files)), params))
        assert want == (ValueError, f"a{count:02d}.txt: the stream yields more than the "
                                    f"{count} actions it counted")
        for mode in MODES:
            with _mode(mode):
                assert _outcome(lambda: window_table((count, files), params)) == want


def test_two_threads_read_every_file_once(tmp_path, monkeypatch):
    # Each file is handed to the pass once, in one call per group, and none
    # is parsed on its own.
    frames = np.cumsum(np.random.default_rng(2).normal(size=(9, 12, 4, 3)), axis=1)
    for i in range(9):
        _write(tmp_path, i, frames[i], "plain")
    if _native.load("_preprocess.c") is None:
        pytest.skip("_preprocess.c was not compiled here")
    calls, compiled_rows = [], evaluation._compiled_rows

    def counted(inputs, joints, params, outs, threads, headers):
        calls.append(([Path(x).stem for x in inputs], threads))
        return compiled_rows(inputs, joints, params, outs, threads, headers)

    monkeypatch.setattr(evaluation, "_compiled_rows", counted)
    monkeypatch.setattr(evaluation, "_FILE_GROUP", 4)
    monkeypatch.setattr(CanonicalFiles, "read", staticmethod(lambda *args: pytest.fail("read")))
    records, _ = window_table(_canonical_actions(tmp_path), [PreprocessParams(frames=8, window=2)])
    assert [r.id for r in records] == [f"a{i:02d}" for i in range(9)]
    assert [ids for ids, _ in calls] == [[f"a{i:02d}" for i in range(k, min(k + 4, 9))]
                                         for k in (0, 4, 8)]
    assert {threads for _, threads in calls} <= {1, 2}
