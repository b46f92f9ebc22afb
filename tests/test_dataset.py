"""Tests for dataset types, the canonical file format, adapters, and splits."""

import hashlib
import locale
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from dam import dataset
from dam.dataset import (
    Action,
    Dataset,
    Msrc12Layout,
    class_order,
    filter_action_set,
    load_canonical_dataset,
    load_msr_action3d,
    load_msrc12,
    parse_action_file,
    read_exclusion_file,
    serialize_action,
    split_cross_subject,
    splits_loso,
    write_canonical_dataset,
)
from dam.evaluation import window_table
from dam.preprocess import PreprocessParams, preprocess_action
from dam.synthetic import make_directional_dataset, make_ordered_dataset

# SHA-256 over (file name, NUL, bytes) of each file `write_canonical_dataset`
# writes for a small noisy, jittered corpus of each generator (see
# `test_written_corpus_bytes_are_pinned`); it pins both generators and both
# paths of the writer.
CORPUS_DIGESTS = {
    "make_directional_dataset":
        "a8670ea215c2bc0321864ae79c16bc1acff3bf680f5c0e370cf2a6696d456054",
    "make_ordered_dataset":
        "832f2164dfcef0ee41d5b67977d12018a837d259d78b26ed262b9ba1beec0c9d",
}


def _random_action(rng, ident="a1", subject=1, label=1, frames=6, joints=2):
    return Action(
        id=ident,
        subject=subject,
        label=label,
        frames=rng.normal(size=(frames, joints, 3)),
    )


class TestActionAndDataset:
    def test_rejects_bad_shapes_and_counts(self):
        with pytest.raises(ValueError):
            Action(id="x", subject=1, label=1, frames=np.zeros((4, 3)))
        with pytest.raises(ValueError):
            Action(id="x", subject=1, label=1, frames=np.zeros((1, 2, 3)))
        with pytest.raises(ValueError):
            Action(id="x", subject=1, label=1, frames=np.full((4, 2, 3), np.nan))

    @pytest.mark.parametrize("label", ["wave, both hands", "wave\nclap"])
    def test_rejects_label_with_comma_or_newline(self, label):
        with pytest.raises(ValueError, match="invalid label"):
            Action(id="x", subject=1, label=label, frames=np.zeros((4, 2, 3)))

    def test_dataset_requires_consistent_joint_count(self):
        rng = np.random.default_rng(0)
        a = _random_action(rng, "a", joints=2)
        b = _random_action(rng, "b", joints=3)
        with pytest.raises(ValueError):
            Dataset([a, b])

    def test_dataset_rejects_duplicate_ids(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Dataset([_random_action(rng, "same"), _random_action(rng, "same")])

    def test_dataset_summaries(self):
        rng = np.random.default_rng(1)
        ds = Dataset(
            [
                _random_action(rng, "a", subject=3, label="wave"),
                _random_action(rng, "b", subject=1, label="clap"),
                _random_action(rng, "c", subject=3, label="wave"),
            ]
        )
        assert len(ds) == 3
        assert ds.joint_count == 2
        assert ds.class_set == ("clap", "wave")
        assert ds.subject_set == (1, 3)

    def test_class_order_is_total_and_deterministic(self):
        assert class_order({3, 1, 2}) == [1, 2, 3]
        assert class_order({"b", "a"}) == ["a", "b"]
        assert class_order({2, "a", 1}) == [1, 2, "a"]


@pytest.fixture(scope="class", params=["compiled", "python"])
def table_reader(request):
    """Read number tables with the compiled reader, then with the Python one."""
    if request.param == "python":
        reader = lambda: None  # noqa: E731
    elif dataset._table_reader() is None:
        pytest.skip("the table reader was not compiled here")
    else:
        reader = dataset._table_reader
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_table_reader", reader)
        yield request.param


@pytest.mark.usefixtures("table_reader")
class TestCanonicalFormat:
    def test_parse_happy_path_with_comments_and_blank_lines(self):
        text = (
            "# recorded 2021-03-01\n"
            "\n"
            "clip7,4,wave,2,2\n"
            "0.0 1.0 2.0 3.0 4.0 5.0\n"
            "# halfway\n"
            "6.0 7.0 8.0 9.0 10.0 11.0\n"
        )
        action = parse_action_file(text)
        assert action.id == "clip7"
        assert action.subject == 4
        assert action.label == "wave"
        assert action.frames.shape == (2, 2, 3)
        assert_array_equal(action.frames[1, 1], [9.0, 10.0, 11.0])

    def test_integer_like_class_becomes_int(self):
        text = "a,1,17,2,1\n0 0 0\n1 1 1\n"
        assert parse_action_file(text).label == 17

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("a,1,2\n0 0 0\n", "line 1"),  # header too short
            ("a,x,2,2,1\n0 0 0\n1 1 1\n", "subject"),
            ("a,1,2,two,1\n0 0 0\n1 1 1\n", "line 1"),
            ("a,1,2,2,1\n0 0 0\n", "expected 2 frame lines"),
            ("a,1,2,2,1\n0 0 0\n1 1\n", "line 3"),  # wrong value count
            ("a,1,2,2,1\n0 0 0\n1 1 oops\n", "line 3"),
            ("a,1,2,2,1\n0 0 0\n1 1 1\n2 2 2\n", "line 4"),  # extra content
            (",1,2,2,1\n0 0 0\n1 1 1\n", "id"),
        ],
    )
    def test_parse_errors_name_the_problem(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_action_file(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a,1,2,2,1\n0 0 0 0\n1 1\n", "line 2: expected 3 values, got 4"),
            ("a,1,2,2,1\n0 0 0\n1 1 1\n2 2 2\n", "line 4: unexpected content after 2 frame lines"),
            ("a,1,2,2,1\n0 0 0\n", "expected 2 frame lines, found 1"),
            ("a,1,2,2,1\n0 0 0\n1 0x1p3 1\n", "line 3: unparseable number"),
            # A header too large to allocate a table for is still one line error.
            ("a,1,2,2,100000000000\n0 0 0\n1 1 1\n",
             "line 2: expected 300000000000 values, got 3"),
        ],
    )
    def test_frame_errors_are_word_for_word(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_action_file(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "token",
        ["1_0", "nan", "NaN", "-nan", "inf", "Infinity", "-inf", "1e400", "1e-400",
         "5e-324", "-0", ".5", "1.", " 1", "+1.5", "1E5", "0x1p3", "1__0", "_1", "1e",
         "1,5", "--1"],
    )
    def test_numbers_parse_as_float_does(self, token):
        text = f"a,1,2,2,1\n{token} 0 0\n0 0 0\n"
        try:
            want = float(token)
        except ValueError:
            with pytest.raises(ValueError, match="line 2: unparseable number"):
                parse_action_file(text)
            return
        if not np.isfinite(want):
            # Parsed like float(), then refused by the Action check.
            with pytest.raises(ValueError, match="non-finite coordinates"):
                parse_action_file(text)
            return
        got = parse_action_file(text).frames[0, 0, 0]
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_frames_match_the_per_line_float_parse(self):
        rng = np.random.default_rng(8)
        for i in range(10):
            action = _random_action(rng, ident=f"c{i}", frames=9, joints=4)
            action.frames[0, 0] = [-0.0, 1e-310, 1e300]
            text = serialize_action(action)
            lines = text.splitlines()[1:]
            want = np.array([[float(v) for v in line.split()] for line in lines])
            got = parse_action_file(text).frames.reshape(len(lines), -1)
            assert got.tobytes() == want.tobytes()

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(5)
        for i in range(25):
            action = _random_action(
                rng,
                ident=f"clip{i}",
                subject=int(rng.integers(1, 9)),
                label=int(rng.integers(1, 5)) if i % 2 else f"cls{i % 3}",
                frames=int(rng.integers(2, 9)),
                joints=int(rng.integers(1, 5)),
            )
            again = parse_action_file(serialize_action(action))
            assert again.id == action.id
            assert again.subject == action.subject
            assert again.label == action.label
            assert_array_equal(again.frames, action.frames)

    def test_serialization_is_a_fixed_point(self):
        rng = np.random.default_rng(6)
        action = _random_action(rng, "fp")
        text = serialize_action(action)
        assert serialize_action(parse_action_file(text)) == text

    def test_extreme_floats_are_written_as_repr(self):
        values = [-0.0, 5e-324, 1e300, -1.7976931348623157e308, 0.1, 3.0,
                  1e-4, 1e-5, 9999999999999998.0, 1e16, 2.0**-25, 2.225073858507201e-308]
        action = Action("x", 1, 1, np.array(values).reshape(4, 1, 3))
        lines = serialize_action(action).splitlines()[1:]
        assert lines == ["-0.0 5e-324 1e+300", "-1.7976931348623157e+308 0.1 3.0",
                         "0.0001 1e-05 9999999999999998.0",
                         "1e+16 2.9802322387695312e-08 2.225073858507201e-308"]

    @pytest.mark.parametrize("make", [make_directional_dataset, make_ordered_dataset],
                             ids=lambda f: f.__name__)
    def test_written_corpus_bytes_are_pinned(self, tmp_path, monkeypatch, make):
        # With the compiled writer when it loads, then with the Python path.
        ds = make(classes=3, subjects=2, instances=2, raw_frames=12, joints=3, seed=7,
                  noise=0.05, direction_jitter=0.3)
        for writer in ("compiled", "python"):
            if writer == "python":
                monkeypatch.setattr(dataset, "_table_writer", lambda: None)
            digest = hashlib.sha256()
            for path in write_canonical_dataset(ds, tmp_path / writer):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            assert digest.hexdigest() == CORPUS_DIGESTS[make.__name__], writer

    def test_directory_round_trip_with_loader(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = Dataset([_random_action(rng, f"c{i}", subject=i % 3 + 1) for i in range(6)])
        write_canonical_dataset(ds, tmp_path / "out")
        back = load_canonical_dataset(tmp_path / "out")
        assert sorted(a.id for a in back.actions) == sorted(a.id for a in ds.actions)
        by_id = {a.id: a for a in back.actions}
        for a in ds.actions:
            assert_array_equal(by_id[a.id].frames, a.frames)

    @pytest.mark.parametrize("bad", ["exclude", "sub/c1", "sub\\c1"])
    def test_writer_rejects_an_unsafe_id_before_writing_anything(self, tmp_path, bad):
        # An action named `exclude` would be written to the exclusion file,
        # and the loader would read it as one instead of loading it.
        rng = np.random.default_rng(9)
        ds = Dataset([_random_action(rng, i) for i in ("b", "c", bad)])
        with pytest.raises(ValueError, match=repr(bad).replace("\\", "\\\\")):
            write_canonical_dataset(ds, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ident, label", [
        # A header that reads as a comment, as an MSRC-12 sequence `#g_p01.csv` makes.
        ("#g_p01_i001", 1),
        # Fields that read back stripped, or as another type.
        (" a", 1), ("a", " wave "), ("a", "1"),
        # Line breaks of `str.splitlines` that `Action` lets through.
        *((f"a{c}b", 1) for c in "\r\x0b\x1c\x85\u2028"),
        *(("a", f"x{c}y") for c in "\r\x0c\u2028"),
    ], ids=repr)
    def test_writer_rejects_a_header_that_does_not_read_back(self, tmp_path, ident, label):
        rng = np.random.default_rng(10)
        bad = _random_action(rng, ident, label=label)
        ds = Dataset([_random_action(rng, "b"), bad])
        with pytest.raises(ValueError, match=re.escape(f"action {ident!r}")):
            write_canonical_dataset(ds, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="does not read back"):
            serialize_action(bad)

    def test_loader_applies_exclusion_file(self, tmp_path):
        rng = np.random.default_rng(8)
        ds = Dataset([_random_action(rng, f"c{i}") for i in range(4)])
        write_canonical_dataset(ds, tmp_path)
        (tmp_path / "exclude.txt").write_text("# bad takes\nc1\nc3\n\n")
        kept = load_canonical_dataset(tmp_path)
        assert sorted(a.id for a in kept.actions) == ["c0", "c2"]
        full = load_canonical_dataset(tmp_path, apply_exclusions=False)
        assert len(full) == 4

    def test_loader_errors(self, tmp_path):
        with pytest.raises(ValueError):
            load_canonical_dataset(tmp_path / "missing")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError):
            load_canonical_dataset(empty)

    def test_read_exclusion_file(self, tmp_path):
        p = tmp_path / "exclude.txt"
        p.write_text("a01\n# comment\n\n a02 \n")
        assert read_exclusion_file(p) == {"a01", "a02"}


class TestMsrAction3dAdapter:
    @staticmethod
    def _write(path, frames, joints=20, seed=0):
        rng = np.random.default_rng(seed)
        records = rng.normal(size=(frames * joints, 4))
        np.savetxt(path, records, fmt="%.6f")
        return records

    def test_parses_name_fields_and_drops_confidence(self, tmp_path):
        records = self._write(tmp_path / "a01_s05_e02_skeleton3D.txt", frames=3)
        ds = load_msr_action3d(tmp_path)
        assert len(ds) == 1
        action = ds.actions[0]
        assert action.id == "a01_s05_e02_skeleton3D"
        assert action.label == 1
        assert action.subject == 5
        assert action.frames.shape == (3, 20, 3)
        assert_allclose(
            action.frames.reshape(-1, 3),
            np.loadtxt(tmp_path / "a01_s05_e02_skeleton3D.txt")[:, :3],
        )
        del records

    def test_record_count_not_divisible_by_joints_fails(self, tmp_path):
        path = tmp_path / "a02_s01_e01.txt"
        np.savetxt(path, np.zeros((41, 4)))
        with pytest.raises(ValueError, match="a02_s01_e01"):
            load_msr_action3d(tmp_path)

    def test_wrong_column_count_fails(self, tmp_path):
        path = tmp_path / "a02_s01_e01.txt"
        np.savetxt(path, np.zeros((40, 3)))
        with pytest.raises(ValueError, match="a02_s01_e01"):
            load_msr_action3d(tmp_path)

    def test_no_matching_files_fails(self, tmp_path):
        (tmp_path / "readme.txt").write_text("not a skeleton file\n")
        with pytest.raises(ValueError):
            load_msr_action3d(tmp_path)

    def test_exclusions_by_id(self, tmp_path):
        self._write(tmp_path / "a01_s01_e01.txt", frames=2, seed=1)
        self._write(tmp_path / "a01_s02_e01.txt", frames=2, seed=2)
        (tmp_path / "exclude.txt").write_text("a01_s01_e01\n")
        ds = load_msr_action3d(tmp_path)
        assert [a.id for a in ds.actions] == ["a01_s02_e01"]

    def test_excluded_dumps_are_not_read(self, tmp_path):
        np.savetxt(tmp_path / "a02_s01_e01.txt", np.zeros((41, 4)))
        self._write(tmp_path / "a01_s02_e01.txt", frames=2)
        (tmp_path / "exclude.txt").write_text("a02_s01_e01\n")
        assert [a.id for a in load_msr_action3d(tmp_path).actions] == ["a01_s02_e01"]
        (tmp_path / "exclude.txt").write_text("a02_s01_e01\na01_s02_e01\n")
        with pytest.raises(ValueError, match=r"^all actions in .* are excluded$"):
            load_msr_action3d(tmp_path)


def _write_msrc12_sequence(path, frames, layout, seed=0):
    """Numeric sequence file laid out per `layout`, joints at predictable values."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(frames, layout.values_per_frame))
    np.savetxt(path, table, fmt="%.6f")
    return np.loadtxt(path, ndmin=2)


SMALL_LAYOUT = Msrc12Layout(
    values_per_frame=9, first_joint_column=1, joint_stride=4, joint_count=2
)


class TestMsrc12Adapter:
    def test_span_extent_segments_instances(self, tmp_path):
        table = _write_msrc12_sequence(tmp_path / "gesture_p06_take1.csv", 300, SMALL_LAYOUT)
        (tmp_path / "gesture_p06_take1.tags").write_text("50;wave\n120;wave\n")
        ds = load_msrc12(tmp_path, layout=SMALL_LAYOUT)
        assert len(ds) == 2
        first, second = sorted(ds.actions, key=lambda a: a.id)
        assert first.id == "gesture_p06_take1_i001"
        assert first.subject == 6
        assert first.label == "wave"
        assert first.frames.shape == (51, 2, 3)
        assert second.frames.shape == (70, 2, 3)
        # joint 0 of frame 0 lives at columns 1..3 (timestamp at column 0 dropped)
        assert_allclose(first.frames[0, 0], table[0, 1:4])
        assert_allclose(second.frames[0, 1], table[51, 5:8])

    def test_window_extent(self, tmp_path):
        layout = Msrc12Layout(
            values_per_frame=9,
            first_joint_column=1,
            joint_stride=4,
            joint_count=2,
            extent="window",
            window_radius=10,
        )
        _write_msrc12_sequence(tmp_path / "g_p01.csv", 100, layout)
        (tmp_path / "g_p01.tags").write_text("5;punch\n50;punch\n")
        ds = load_msrc12(tmp_path, layout=layout)
        lengths = sorted(a.frames.shape[0] for a in ds.actions)
        assert lengths == [16, 21]  # first window clipped at sequence start

    def test_int_and_string_labels_on_one_frame(self, tmp_path):
        layout = Msrc12Layout(values_per_frame=9, first_joint_column=1, joint_stride=4,
                              joint_count=2, extent="window", window_radius=10)
        _write_msrc12_sequence(tmp_path / "g_p01.csv", 100, layout)
        (tmp_path / "g_p01.tags").write_text("20;1\n20;walk\n35;2\n")
        ds = load_msrc12(tmp_path, layout=layout)
        labels = [a.label for a in sorted(ds.actions, key=lambda a: a.id)]
        assert labels == [1, "walk", 2]  # on one frame, the int label first

    def test_a_subdirectory_named_like_a_sequence_is_skipped(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "g_p01.csv", 60, SMALL_LAYOUT)
        (tmp_path / "g_p01.tags").write_text("20;wave\n")
        (tmp_path / "zz.csv").mkdir()
        (tmp_path / "zz.tags").write_text("5;wave\n")
        ds = load_msrc12(tmp_path, layout=SMALL_LAYOUT)
        assert [a.id for a in ds.actions] == ["g_p01_i001"]

    def test_default_layout_dimensions(self, tmp_path):
        layout = Msrc12Layout()
        assert layout.values_per_frame == 81
        assert layout.joint_count == 20
        _write_msrc12_sequence(tmp_path / "g_p03.csv", 40, layout)
        (tmp_path / "g_p03.tags").write_text("30;2\n")
        ds = load_msrc12(tmp_path)
        assert ds.actions[0].frames.shape == (31, 20, 3)
        assert ds.actions[0].label == 2

    def test_annotation_beyond_sequence_fails(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "g_p01.csv", 300, SMALL_LAYOUT)
        (tmp_path / "g_p01.tags").write_text("400;wave\n")
        with pytest.raises(ValueError, match="g_p01"):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT)

    def test_empty_annotations_warn_and_yield_nothing(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "a_p01.csv", 50, SMALL_LAYOUT, seed=1)
        (tmp_path / "a_p01.tags").write_text("20;wave\n")
        _write_msrc12_sequence(tmp_path / "b_p02.csv", 50, SMALL_LAYOUT, seed=2)
        (tmp_path / "b_p02.tags").write_text("")
        with pytest.warns(UserWarning, match="b_p02"):
            ds = load_msrc12(tmp_path, layout=SMALL_LAYOUT)
        assert len(ds) == 1

    def test_fully_excluded_sequence_is_not_read(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "a_p01.csv", 50, SMALL_LAYOUT, seed=1)
        (tmp_path / "a_p01.tags").write_text("20;wave\n")
        (tmp_path / "b_p02.csv").write_text("1 2 3\n")
        (tmp_path / "b_p02.tags").write_text("20;wave\n")
        (tmp_path / "exclude.txt").write_text("b_p02_i001\n")
        ds = load_msrc12(tmp_path, layout=SMALL_LAYOUT)
        assert [a.id for a in ds.actions] == ["a_p01_i001"]
        with pytest.raises(ValueError, match="^b_p02.csv: line 1: expected 9 values, got 3$"):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT, apply_exclusions=False)

    def test_every_instance_excluded_is_named_as_such(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "a_p01.csv", 50, SMALL_LAYOUT, seed=1)
        (tmp_path / "a_p01.tags").write_text("20;wave\n40;wave\n")
        _write_msrc12_sequence(tmp_path / "b_p02.csv", 50, SMALL_LAYOUT, seed=2)
        (tmp_path / "b_p02.tags").write_text("20;wave\n")
        (tmp_path / "exclude.txt").write_text("a_p01_i001\na_p01_i002\nb_p02_i001\n")
        with pytest.raises(ValueError, match=r"^all actions in .* are excluded$"):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT)

    def test_no_instances_without_exclusions_say_so(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "a_p01.csv", 50, SMALL_LAYOUT, seed=1)
        (tmp_path / "a_p01.tags").write_text("")
        (tmp_path / "exclude.txt").write_text("b_p02_i001\n")
        with pytest.warns(UserWarning, match="a_p01"):
            with pytest.raises(ValueError, match=r"^no action instances produced from "):
                load_msrc12(tmp_path, layout=SMALL_LAYOUT)

    def test_partly_excluded_sequence_is_read_and_checked(self, tmp_path):
        (tmp_path / "b_p02.csv").write_text("1 2 3\n")
        (tmp_path / "b_p02.tags").write_text("20;wave\n40;wave\n")
        (tmp_path / "exclude.txt").write_text("b_p02_i001\n")
        with pytest.raises(ValueError, match="^b_p02.csv: line 1: expected 9 values, got 3$"):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT)

    def test_missing_annotation_file_fails(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "g_p01.csv", 50, SMALL_LAYOUT)
        with pytest.raises(ValueError, match="annotation"):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT)

    def test_wrong_value_count_names_file(self, tmp_path):
        (tmp_path / "g_p01.csv").write_text("1 2 3 4 5\n")
        (tmp_path / "g_p01.tags").write_text("0;x\n")
        with pytest.raises(ValueError, match="g_p01"):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT)

    def test_label_with_comma_is_rejected(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "g_p01.csv", 50, SMALL_LAYOUT)
        (tmp_path / "g_p01.tags").write_text("20;wave, both hands\n")
        with pytest.raises(ValueError, match="g_p01_i001.*invalid label"):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT)

    @pytest.mark.parametrize("fields, message", [
        ({"first_joint_column": -1}, "first_joint_column must be >= 0, got -1"),
        ({"joint_stride": -4, "first_joint_column": 77}, "joint_stride must be >= 0, got -4"),
        ({"coord_offsets": (0, -1, 2)}, r"coord_offsets must be >= 0, got \[0, -1, 2\]"),
        ({"values_per_frame": 0, "first_joint_column": 0, "joint_count": 1,
          "coord_offsets": (0, 0, 0)}, "joint columns run to 0 but rows only have 0 values"),
    ])
    def test_layout_rejects_negative_columns(self, fields, message):
        # A negative column would index each row from its end.
        with pytest.raises(ValueError, match=f"^{message}$"):
            Msrc12Layout(**fields)

    def test_the_window_table_is_sized_once_from_the_kept_instances(self, tmp_path):
        # Three sequences with 7 instances, 2 of them excluded, and one sequence
        # with an empty annotation file: the count is the 5 kept instances, so
        # `window_table` allocates each table for exactly its rows and never
        # grows it, and the rows are those of the loaded actions.
        for seed, (stem, tags) in enumerate([("a_p01", "20;wave\n45;punch\n70;wave\n"),
                                             ("b_p02", "30;punch\n60;wave\n"),
                                             ("c_p03", ""), ("d_p04", "25;wave\n50;wave\n")]):
            _write_msrc12_sequence(tmp_path / f"{stem}.csv", 80, SMALL_LAYOUT, seed=seed)
            (tmp_path / f"{stem}.tags").write_text(tags)
        (tmp_path / "exclude.txt").write_text("a_p01_i002\nd_p04_i001\n")
        params = [PreprocessParams(frames=10, window=w) for w in (1, 3)]
        with pytest.warns(UserWarning, match="c_p03"):
            actions = load_msrc12(tmp_path, layout=SMALL_LAYOUT).actions
            count, stream = dataset._msrc12_actions(tmp_path, layout=SMALL_LAYOUT)
            records, tables = window_table((count, stream), params)
        assert count == len(actions) == len(records) == 5
        for p, table in tables.items():
            assert table.shape[0] == count * p.wdf_count
            assert_array_equal(table, np.vstack([preprocess_action(a, p) for a in actions]))

    @pytest.mark.parametrize("first_bad", ["table", "annotations"])
    def test_the_first_bad_file_in_sorted_order_is_reported(self, tmp_path, first_bad):
        # The annotations are all read before any sequence, yet a bad
        # annotation file is reported only when its sequence's turn comes.
        for stem, bad in (("a_p01", first_bad), ("b_p02", {"table": "annotations",
                                                            "annotations": "table"}[first_bad])):
            if bad == "table":
                (tmp_path / f"{stem}.csv").write_text("1 2 3\n")
                (tmp_path / f"{stem}.tags").write_text("0;wave\n")
            else:
                _write_msrc12_sequence(tmp_path / f"{stem}.csv", 50, SMALL_LAYOUT)
                (tmp_path / f"{stem}.tags").write_text("20;wave\nx\n")
        message = {"table": "^a_p01.csv: line 1: expected 9 values, got 3$",
                   "annotations": "^a_p01.tags: line 2: expected 'frame;label'"}[first_bad]
        with pytest.raises(ValueError, match=message):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT)

    def test_subject_pattern_must_match(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "nosubject.csv", 50, SMALL_LAYOUT)
        (tmp_path / "nosubject.tags").write_text("20;x\n")
        with pytest.raises(ValueError, match="subject"):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT)


# Raw-format name -> (loader, table file, values per line, lines in a valid table,
# the columns that hold coordinates).
RAW_TABLES = {
    "action3d": (load_msr_action3d, "a01_s01_e01.txt", 4, 40, [0, 1, 2]),
    "msrc12": (lambda d: load_msrc12(d, layout=SMALL_LAYOUT), "g_p01.csv", 9, 2,
               [1, 2, 3, 5, 6, 7]),
}


@pytest.mark.usefixtures("table_reader")
class TestRawTables:
    """Both raw formats read their number tables with the canonical format's rules."""

    @staticmethod
    def _load(tmp_path, fmt, rows, head=("# recorded 2012", "")):
        loader, name = RAW_TABLES[fmt][:2]
        (tmp_path / name).write_text("\n".join([*head, *rows]) + "\n")
        (tmp_path / "g_p01.tags").write_text("1;x\n")  # action3d ignores it
        return loader(tmp_path)

    @staticmethod
    def _rows(fmt, seed=0):
        width, count = RAW_TABLES[fmt][2:4]
        table = np.random.default_rng(seed).normal(size=(count, width))
        return [" ".join(repr(float(v)) for v in row) for row in table], table

    @pytest.mark.parametrize("fmt", list(RAW_TABLES))
    def test_comment_and_blank_lines_are_skipped(self, tmp_path, fmt):
        rows, table = self._rows(fmt)
        rows[1:1] = ["", "  # halfway", "   "]
        [action] = self._load(tmp_path, fmt, rows).actions
        want = table[:, RAW_TABLES[fmt][4]].reshape(-1, 3)
        assert action.frames.reshape(-1, 3).tobytes() == want.tobytes()

    @pytest.mark.parametrize("fmt", list(RAW_TABLES))
    def test_numbers_parse_as_float_does(self, tmp_path, fmt):
        rows, _ = self._rows(fmt)
        rows[0] = " ".join(["1_0"] * RAW_TABLES[fmt][2])
        [action] = self._load(tmp_path, fmt, rows).actions
        assert_array_equal(action.frames[0, 0], [float("1_0")] * 3)

    @pytest.mark.parametrize("fmt", list(RAW_TABLES))
    @pytest.mark.parametrize("edit,message", [
        (lambda row: "x" + row, "line 3: unparseable number"),
        (lambda row: row.rsplit(" ", 1)[0], "line 3: expected {w} values, got {short}"),
        (lambda row: row + " # note", "line 3: expected {w} values, got {long}"),
    ], ids=["bad token", "short row", "inline comment"])
    def test_bad_line_gives_one_error_naming_file_and_line(self, tmp_path, fmt, edit,
                                                          message):
        name, width = RAW_TABLES[fmt][1:3]
        rows, _ = self._rows(fmt)
        rows[0] = edit(rows[0])
        with pytest.raises(ValueError) as info:
            self._load(tmp_path, fmt, rows)
        want = message.format(w=width, short=width - 1, long=width + 2)
        assert str(info.value) == f"{name}: {want}"

    @pytest.mark.parametrize("fmt", list(RAW_TABLES))
    def test_empty_table_is_one_error_naming_the_file(self, tmp_path, fmt):
        with pytest.raises(ValueError) as info:
            self._load(tmp_path, fmt, [], head=("# nothing recorded", ""))
        assert str(info.value) == f"{RAW_TABLES[fmt][1]}: no data lines"


# --- The compiled table reader against the Python one -------------------------

def _spelled_numbers(max_exponent):
    """1-30 digits, a point anywhere or none, an exponent up to `max_exponent` or none."""
    exponents = st.builds("{}{}{}".format, st.sampled_from("eE"),
                          st.sampled_from(["", "+", "-"]), st.integers(0, max_exponent))
    return st.tuples(
        st.sampled_from(["", "-", "+"]),
        st.text("0123456789", min_size=1, max_size=30),
        st.one_of(st.none(), st.integers(0, 30)),
        st.just("") | exponents,
    ).map(lambda t: t[0] + (t[1] if t[2] is None else f"{t[1][:t[2]]}.{t[1][t[2]:]}") + t[3])


# Numbers as a file may spell them, all in the range the compiled reader reads.
_NUMBERS = st.one_of(st.floats(-1e6, 1e6, allow_subnormal=False).map(repr),
                     st.floats(1e-300, 1e300).map(repr), _spelled_numbers(30))
# What one text in two gets inserted at a random place: a subnormal or
# overflowing number, a token float() may or may not take, a separator or
# line break that Python honours, or a byte it does not.
_ODDITIES = st.one_of(
    _spelled_numbers(400),
    st.floats(0, 1e-300).map(repr),
    st.sampled_from([
        "1_0", "_1", "inf", "-Infinity", "nan", "0x1p3", "1e", ".", "--1", "1.5.2", "1,5",
        "١٢", "１.5", "5²", "\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
        "\xa0", " ", "　", "\r", "\n", "\t", "#", "1e309", "5e-324",
    ]),
)
_FILLER_LINES = st.lists(st.sampled_from(["", "  ", "\t", "# note", "  # 1 2 3", "#"]),
                         max_size=2)


@st.composite
def _table_text(draw, width, rows):
    """`rows` lines of `width` values, with comments and blank lines between; in one
    text of two, a line has a value too few or too many, or an oddity is inserted."""
    fault = draw(st.sampled_from([None, "oddity", "count"])) if draw(st.booleans()) else None
    counts = [width] * rows
    if rows and fault == "count":
        counts[draw(st.integers(0, rows - 1))] += draw(st.sampled_from([-1, 1]))
    lines = []
    for count in counts:
        lines += draw(_FILLER_LINES)
        tokens = draw(st.lists(_NUMBERS, min_size=count, max_size=count))
        separators = draw(st.lists(st.sampled_from([" ", "\t", "  ", " \t "]),
                                   min_size=count + 1, max_size=count + 1))
        lines.append("".join(sep + tok for sep, tok in zip(separators, tokens))
                     + draw(st.sampled_from(["", separators[-1]])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if fault == "oddity":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_ODDITIES) + text[at:]
    return text


@st.composite
def _canonical_text(draw):
    joints = draw(st.integers(1, 2))
    rows = draw(st.integers(2, 5))
    frames = rows + draw(st.sampled_from([0, 0, 0, -1, 1]))
    head = draw(st.sampled_from(["", "# recorded\n", "\n  \n", "#a\r\n\r\n", "#b\r \r"]))
    return f"{head}clip,3,wave,{frames},{joints}\n" + draw(_table_text(joints * 3, rows))


def _outcome(read):
    """What `read()` gives, as bytes and fields that compare exactly, or its error text."""
    try:
        result = read()
    except ValueError as e:
        return str(e)
    if isinstance(result, Action):
        return (result.id, result.subject, result.label, result.frames.shape,
                result.frames.tobytes())
    return result.shape, result.tobytes()


def _on_both_readers(read) -> tuple:
    """`_outcome(read)` with the compiled table reader, then with the Python one."""
    compiled = _outcome(read)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_table_reader", lambda: None)
        return compiled, _outcome(read)


def _compiled(data: bytes, width: int, skip: int, rows: int | None):
    """`_compiled_table` of a file's bytes `data` on the compiled reader."""
    return dataset._compiled_table(data, width, skip, rows, dataset._table_reader())


def _read(data: bytes, width: int) -> np.ndarray:
    """The table `_read_file_table` reads from a file's bytes `data`."""
    return dataset._read_file_table(Path("t.csv"), data, width)


@pytest.fixture(scope="module")
def compiled_reader():
    if dataset._table_reader() is None:
        pytest.skip("the table reader was not compiled here")


DBL_MIN = sys.float_info.min

# Named hard cases: the first odd integer past 2**53, the largest subnormal
# spelled long, the smallest subnormal, the largest double and one just past
# it that rounds to infinity, a 60-digit mantissa, and exact halfway points.
HARD_TOKENS = [
    "9007199254740993", "2.2250738585072011e-308", "2.2250738585072012e-308",
    "4.9406564584124654e-324", "1.7976931348623157e308", "1.7976931348623158e308",
    "1.7976931348623159e308", "123456789012345678901234567890123456789012345678901234567890",
    "0.000000000000000000000000000000000000000000000000000000000001234567890123456789",
    "9007199254740992.5", "1.00000000000000011102230246251565404236316680908203125",
    "7.2057594037927933e16", "1e23", "8.98846567431158e307", "1e-22", "1e22",
    "18446744073709551615", "18446744073709551616e-20", "0e99999999999", "-0.0e-999",
    "2.2250738585072014e-308", "5e-324", "1e400", "1e-400",
]


def _sweep_tokens(seed: int, n: int) -> list[str]:
    """`n` seeded number tokens across binary64 in four spellings, then the hard cases.

    The spellings: repr and %.Ne of random bit patterns, %.Nf of values up to
    1e6, and up to 12 + 12 random digits around a point, zero-padded, with
    an exponent in [-340, 300].
    """
    rng = np.random.default_rng(seed)
    quarter = n // 4
    bits = rng.integers(0, 2**64, size=2 * quarter, dtype=np.uint64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, 1.5)
    tokens = str(bits[:quarter].tolist())[1:-1].split(", ")
    for places, values in enumerate(np.array_split(bits[quarter:], 25)):
        tokens += (f"%.{places}e " * len(values) % tuple(values.tolist())).split()
    for places, values in enumerate(np.array_split(rng.uniform(-1e6, 1e6, quarter), 25)):
        tokens += (f"%.{places}f " * len(values) % tuple(values.tolist())).split()
    rest = n - len(tokens)
    widths = rng.integers(0, 13, size=(2, rest))
    columns = [rng.choice(["", "-", "+"], size=rest), widths[0], rng.integers(0, 10**widths[0]),
               widths[1], rng.integers(0, 10**widths[1]), rng.integers(-340, 301, size=rest)]
    rows = [value for row in zip(*(c.tolist() for c in columns)) for value in row]
    tokens += ("%s%0*d.%0*de%d " * rest % tuple(rows)).split()
    return tokens + HARD_TOKENS


def _zero_mantissa(token: str) -> bool:
    return not token.lower().split("e")[0].strip("+-0.")


def _significant_digits(token: str) -> int:
    """The mantissa digits of `token` from its first nonzero one on."""
    return len(token.lower().partition("e")[0].strip("+-").replace(".", "").lstrip("0"))


def _in_normal_range(token: str, value: float) -> bool:
    """Whether the compiled reader must read `token`: at most 19 significant digits,
    and 0 spelled as 0, or normal and finite, with an exponent below 10**5."""
    exponent = token.lower().partition("e")[2]
    if exponent and abs(int(exponent)) >= 10**5 or _significant_digits(token) > 19:
        return False
    if value == 0:
        return _zero_mantissa(token)
    return 2 * DBL_MIN <= abs(value) < float("inf")


def _out_of_range(token: str, value: float) -> bool:
    """Whether the compiled reader must decline `token`: subnormal, underflowing or infinite."""
    return abs(value) == float("inf") or (abs(value) < DBL_MIN and not _zero_mantissa(token))


@pytest.mark.usefixtures("compiled_reader")
class TestCompiledReader:
    """The compiled reader gives float()'s bytes or leaves the table to the Python one."""

    @settings(max_examples=200, deadline=None)
    @given(_canonical_text())
    def test_canonical_file_reads_the_same_on_both_readers(self, text):
        compiled, python = _on_both_readers(lambda: parse_action_file(text))
        assert compiled == python

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda width: st.tuples(st.just(width), _table_text(width, 4))))
    def test_raw_table_reads_the_same_on_both_readers(self, case):
        width, text = case
        compiled, python = _on_both_readers(
            lambda: dataset._read_file_table(Path("t.csv"), text.encode(), width))
        assert compiled == python

    def test_a_million_tokens_match_float_bit_for_bit(self):
        tokens = _sweep_tokens(seed=13, n=1_040_000)
        values = np.array([float(t) for t in tokens])
        magnitude = np.abs(values)
        normal = np.flatnonzero((magnitude >= 2 * DBL_MIN) & (magnitude < np.inf))
        assert len(normal) > 1_000_000
        # The zeros, subnormals and infinities each go through both readers.
        for i in np.flatnonzero((magnitude < 2 * DBL_MIN) | (magnitude == np.inf)).tolist():
            compiled = _compiled(tokens[i].encode(), 1, 0, None)
            if compiled is not None:
                assert compiled.tobytes() == values[i].tobytes(), tokens[i]
            assert _read(tokens[i].encode(), 1).tobytes() == values[i].tobytes()
        # The compiled reader reads the normal tokens of at most 19 significant
        # digits; the Python one reads the longer ones, which the compiled one
        # declines.
        long = np.array([_significant_digits(tokens[i]) > 19 for i in normal.tolist()])
        assert long.sum() > 150_000
        for i in normal[long][::4001].tolist():
            assert _compiled(tokens[i].encode(), 1, 0, None) is None, tokens[i]
        for part, read in ((normal[~long], lambda text: _compiled(text, 1, 0, None)),
                           (normal[long], lambda text: _read(text, 1))):
            table = read("\n".join([tokens[i] for i in part.tolist()]).encode())
            assert table is not None and table.shape == (len(part), 1)
            wrong = np.flatnonzero(table.reshape(-1).view(np.uint64)
                                   != values[part].view(np.uint64))
            assert [tokens[part[i]] for i in wrong[:5]] == []

    @pytest.mark.parametrize("token", HARD_TOKENS)
    def test_hard_cases_match_float_or_are_declined(self, token):
        value = float(token)
        want = np.float64(value).tobytes()
        compiled = _compiled(token.encode(), 1, 0, None)
        if _in_normal_range(token, value):
            assert compiled is not None
        if _out_of_range(token, value):
            assert compiled is None
        if compiled is not None:
            assert compiled.tobytes() == want
        assert _read(token.encode(), 1).tobytes() == want

    @pytest.mark.parametrize("text", [
        "1 2\n3 4\x0b\n", "1 2\n\x1f\n", "1\xa02\n", "1 2\n3 4 5\n", "1 2\n3\n",
        "1 2\n5e-324 1\n", "1 2\n1e309 1\n", "1 2\ninf 1\n", "1 0x1p3\n", "1_0 2\n",
        *(f"# a{byte}1 2\n1 2\n" for byte in "\x0b\x0c\x1c\x1d\x1e\x1f"),
    ], ids=repr)
    def test_declined_tables_are_left_to_python(self, text):
        assert _compiled(text.encode(), 2, 0, None) is None
        # The same byte in a skipped header line.
        assert _compiled(("h\n" + text).encode(), 2, 1, None) is None

    def test_tokens_of_more_than_19_significant_digits_are_left_to_python(self):
        # Eisel-Lemire is exact up to 19 significant digits; a longer token
        # declines the table, and the Python reader gives float()'s bytes.
        values = np.random.default_rng(5).uniform(-1e5, 1e5, size=(10, 6))
        rows = [" ".join(f"{v:.{digits - 1}e}" for digits, v in zip(range(20, 26), row))
                for row in values.tolist()]
        text = "\n".join(rows)
        for token in text.split():
            assert _compiled(token.encode(), 1, 0, None) is None, token
        assert _compiled(text.encode(), 6, 0, None) is None
        want = np.array([[float(t) for t in row.split()] for row in rows])
        assert _read(text.encode(), 6).tobytes() == want.tobytes()

    @pytest.mark.parametrize("zeros", [0, 123_200])
    @pytest.mark.parametrize("exponent", ["1234567", "100000", "-100000", "+0100000"])
    def test_exponent_of_six_digits_is_declined(self, zeros, exponent):
        # An exponent of 10**5 or more is declined, not cut short: cut to
        # 123456, 1234567 behind 123 200 fraction zeros lands back in range
        # and reads as a finite 1e255, where float() gives inf.
        token = f"0.{'0' * zeros}1e{exponent}"
        data = token.encode()
        assert _compiled(data, 1, 0, None) is None
        assert _read(data, 1).tobytes() == np.float64(float(token)).tobytes()

    def test_powers_of_five_match_the_published_table(self):
        # Entries of the table in fast_float (q = -342, -1, 0), which the
        # generator must reproduce from exact integers.
        powers = dataset._powers_of_five()
        assert powers.shape == (651, 2)
        assert [hex(w) for w in powers[0].tolist()] == ["0xeef453d6923bd65a",
                                                         "0x113faa2906a13b3f"]
        assert [hex(w) for w in powers[341].tolist()] == ["0xcccccccccccccccc",
                                                           "0xcccccccccccccccd"]
        assert powers[342].tolist() == [2**63, 0]

    def test_comma_decimal_locale_is_declined_not_misread(self, tmp_path, monkeypatch):
        # strtod reads the locale's decimal point: under one that uses a
        # comma it stops at the '.', and the reader must decline the table.
        # Without such a locale installed, localedef builds one.
        token = "1.2345678901234567890123"
        before = locale.setlocale(locale.LC_NUMERIC)
        if not _set_numeric_locale("de_DE.UTF-8"):
            if shutil.which("localedef") is None:
                pytest.skip("no locale with a comma decimal point here")
            subprocess.run(["localedef", "-i", "de_DE", "-f", "UTF-8",
                            str(tmp_path / "de_DE.UTF-8")], capture_output=True, timeout=120)
            monkeypatch.setenv("LOCPATH", str(tmp_path))
            if not _set_numeric_locale("de_DE.UTF-8"):
                pytest.skip("no locale with a comma decimal point here")
        try:
            assert locale.localeconv()["decimal_point"] == ","
            assert _compiled(token.encode(), 1, 0, None) is None
            assert _compiled(b"1.5", 1, 0, None)[0, 0] == 1.5
        finally:
            locale.setlocale(locale.LC_NUMERIC, before)
        assert _read(token.encode(), 1)[0, 0] == float(token)


def _set_numeric_locale(name: str) -> bool:
    try:
        locale.setlocale(locale.LC_NUMERIC, name)
    except locale.Error:
        return False
    return True


# Bytes a file may hold where `str.splitlines` and `str.strip` disagree with
# a plain ASCII reading, or that the locale's codec treats specially: \v, \f
# and \x1c-\x1f, NEL and LINE SEPARATOR, other non-ASCII text, a UTF-8 BOM,
# and bytes that are not UTF-8 at all.
_STRAY_BYTES = st.sampled_from([
    b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1f", "\x85".encode(), "\u2028".encode(),
    "\u00e9".encode(), "\u00a0".encode(), b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xe9",
    b"\t", b"\r", b"\n", b"#", b",", b" ",
])


@st.composite
def _canonical_bytes(draw):
    """A canonical file's bytes: LF, CRLF or lone-CR line ends, comments and blank
    lines before the header, tabs, too few or too many rows (`_canonical_text`),
    and in two files of three a stray byte or two, in or before the header or
    anywhere; one file in four starts with a UTF-8 BOM."""
    raw = draw(_canonical_text()).encode("utf-8")
    ends = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    raw = raw.replace(b"\n", ends)
    header_end = raw.index(b"wave") + 8
    for _ in range(draw(st.sampled_from([0, 1, 2]))):
        at = draw(st.integers(0, header_end) | st.integers(0, len(raw)))
        raw = raw[:at] + draw(_STRAY_BYTES) + raw[at:]
    if draw(st.integers(0, 3)) == 0:
        raw = b"\xef\xbb\xbf" + raw
    return raw


def _parsed(read):
    """What `read()` gives, as fields and bytes that compare exactly, or its error's
    type and text."""
    try:
        action = read()
    except ValueError as e:  # UnicodeDecodeError included
        return type(e), str(e)
    return action.id, action.subject, action.label, action.frames.shape, action.frames.tobytes()


class TestBytesAndText:
    """A file's bytes parse as its text does: same action, or same error and message."""

    @settings(max_examples=200, deadline=None)
    @given(raw=_canonical_bytes())
    # A bad header in a file that is not UTF-8 further on, a comment shaped
    # like a header, and a header that \x1c splits in the text.
    @example(raw=b"a,1,2\n0 0 0\n\xff\n")
    @example(raw=b"#c,1,2,1,1\nclip,3,wave,2,1\n1 2 3\n4 5 6\n")
    @example(raw=b"clip,3,wave\x1c,2,1\n1 2 3\n4 5 6\n")
    def test_bytes_parse_as_the_decoded_text(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "bytes_and_text.txt"
        path.write_bytes(raw)
        encoding = locale.getpreferredencoding(False)
        reads = (
            lambda: parse_action_file(raw),
            lambda: parse_action_file(raw.decode(encoding)),
            lambda: parse_action_file(path.read_text()),
        )
        outcomes = [_parsed(read) for read in reads]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "_table_reader", lambda: None)
            outcomes += [_parsed(read) for read in reads]
        assert outcomes == [outcomes[0]] * len(outcomes)

    @pytest.mark.usefixtures("compiled_reader")
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=repr)
    def test_a_clean_file_is_read_without_splitting_its_text(self, monkeypatch, end):
        text = f"# recorded{end}{end}clip,3,wave,2,1{end}1 2 3{end}\t4 5 6{end}"
        want = _parsed(lambda: parse_action_file(text))
        monkeypatch.setattr(dataset, "_content_lines", None)
        assert _parsed(lambda: parse_action_file(text)) == want
        assert _parsed(lambda: parse_action_file(text.encode())) == want
        assert isinstance(want[0], str)

    @pytest.mark.usefixtures("compiled_reader")
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    @pytest.mark.parametrize("value", ["nan", "1.2345678901234567890"])
    def test_a_declined_file_is_read_once_by_each_reader(self, monkeypatch, as_bytes, value):
        # One call of the compiled reader on the bytes, then one split of the
        # text for the Python reader.
        text = f"# recorded\nclip,3,wave,2,1\n1 2 3\n4 5 {value}\n"
        want = _parsed(lambda: parse_action_file(text))
        calls = []
        reader, content_lines = dataset._table_reader(), dataset._content_lines

        def counted_reader(*args):
            calls.append("dam_read_table")
            return reader(*args)

        def counted_lines(text):
            calls.append("_content_lines")
            return content_lines(text)

        monkeypatch.setattr(dataset, "_table_reader", lambda: counted_reader)
        monkeypatch.setattr(dataset, "_content_lines", counted_lines)
        assert _parsed(lambda: parse_action_file(text.encode() if as_bytes else text)) == want
        assert calls == ["dam_read_table", "_content_lines"]

    @pytest.mark.usefixtures("compiled_reader")
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_a_parse_looks_the_reader_up_once(self, monkeypatch, as_bytes):
        text = "clip,3,wave,2,1\n1 2 3\n4 5 6\n"
        reader, lookups = dataset._table_reader(), []
        monkeypatch.setattr(dataset, "_table_reader", lambda: lookups.append(1) or reader)
        action = parse_action_file(text.encode() if as_bytes else text)
        assert action.frames.tobytes() == np.arange(1.0, 7.0).tobytes()
        assert len(lookups) == 1

    def test_without_the_compiled_reader_the_header_is_found_on_the_text(self, monkeypatch):
        text = "# recorded\nclip,3,wave,2,1\n1 2 3\n4 5 6\n"
        monkeypatch.setattr(dataset, "_table_reader", lambda: None)
        monkeypatch.setattr(dataset, "_header_line", None)
        for given in (text, text.encode()):
            assert parse_action_file(given).frames.tobytes() == np.arange(1.0, 7.0).tobytes()

    def test_every_kind_of_file_is_generated(self):
        # The property above sees files that parse, files with each kind of
        # error, and files that are not UTF-8.
        seen = set()

        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @given(raw=_canonical_bytes())
        def collect(raw):
            outcome = _parsed(lambda: parse_action_file(raw))
            seen.add("ok" if isinstance(outcome[0], str) else outcome[0].__name__)

        collect()
        assert {"ok", "ValueError", "UnicodeDecodeError"} <= seen


@pytest.fixture(scope="module")
def compiled_writer():
    if dataset._table_writer() is None:
        pytest.skip("the table writer was not compiled here")


def _repr_lines(table) -> bytes:
    """The oracle: each row's values as repr() writes them, joined by ' ', ended by '\\n'."""
    return "".join(" ".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def _from_bits(bits: int) -> float:
    return float(np.uint64(bits).view(np.float64))


def _finite_doubles():
    """Finite doubles drawn from raw 64-bit patterns, and hypothesis's own floats."""
    raw = st.integers(0, 2**64 - 1).map(_from_bits).filter(np.isfinite)
    return raw | st.floats(allow_nan=False, allow_infinity=False)


def _neighbours(x: float) -> list[float]:
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


# Zeros, the subnormal and normal limits, the largest double, the powers of
# two and ten on each side of repr()'s switches to scientific notation below
# 1e-4 and at 1e16, the integers around 2**53 + 1, 0.1, and 2**-25 =
# 2.98023223876953125e-08, which lies exactly halfway between its two
# shortest candidates and is written with the even one.
PINNED_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    2.0**-14, 2.0**-13, 2.0**53, 2.0**54, *_neighbours(1e-4), 1e-5, *_neighbours(1e16),
    1e15, 1e17, *_neighbours(9007199254740992.0), 9007199254740994.0, 0.1, -0.1,
    2.0**-25,
]


def _with_pinned_doubles(test):
    for value in PINNED_DOUBLES:
        test = example(value=value)(test)
    return test


@pytest.mark.usefixtures("compiled_writer")
class TestCompiledWriter:
    """The compiled writer gives the bytes of repr() for every finite double."""

    @settings(max_examples=2000, deadline=None)
    @given(value=_finite_doubles())
    @_with_pinned_doubles
    def test_a_double_is_written_as_repr(self, value):
        table = np.array([[value, -value]])
        assert dataset._frame_lines(table) == _repr_lines(table)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 12), st.integers(1, 70)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=_finite_doubles())))
    def test_a_table_is_written_as_repr(self, table):
        assert dataset._frame_lines(table) == _repr_lines(table)

    def test_transposed_frames_are_written_in_frame_order(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        frames = rng.normal(size=(3, 4, 9)).transpose(2, 1, 0)
        action = Action("t", 1, 1, frames)
        assert not action.frames.flags.c_contiguous
        compiled = serialize_action(action)
        (path,) = write_canonical_dataset(Dataset([action]), tmp_path / "compiled")
        monkeypatch.setattr(dataset, "_table_writer", lambda: None)
        assert serialize_action(action) == compiled
        assert compiled.encode() == path.read_bytes()
        assert compiled.splitlines()[1:] == [" ".join(map(repr, f.ravel().tolist()))
                                             for f in frames]
        assert_array_equal(parse_action_file(path.read_bytes()).frames, frames)

    def test_a_non_finite_value_leaves_the_table_to_the_python_path(self):
        table = np.array([[1.0, np.inf], [np.nan, -np.inf]])
        assert dataset._frame_lines(table) == b"1.0 inf\nnan -inf\n"


@st.composite
def _digit_strings(draw):
    """1-25 digits, up to all of them leading zeros, with or without a sign, a
    point and an exponent of up to 400."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    digits = "0" * draw(st.integers(0, 25 - len(digits))) + digits
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is not None:
        digits = f"{digits[:point]}.{digits[point:]}"
    exponent = draw(st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"),
                                            st.sampled_from(["", "+", "-"]),
                                            st.integers(0, 400)))
    return draw(st.sampled_from(["", "-", "+"])) + digits + exponent


@pytest.mark.usefixtures("compiled_reader")
class TestDigitRuns:
    """The compiled reader takes digits eight at a time where eight bytes remain;
    a token reads as `_convert_lines` reads it, or is declined, wherever it ends."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(token=_finite_doubles().map(repr) | _digit_strings())
    @example(token="1234567890123456789")
    @example(token="-00000000000000000000001.5e-7")
    def test_a_token_reads_as_float_wherever_it_ends(self, token):
        # The token ends at every offset mod 8: at the very end of the bytes,
        # before a blank there, and before another line of eight bytes.
        for pad in range(8):
            for tail in ("", " ", "\n12345678"):
                text = " " * pad + token + tail
                compiled = _compiled(text.encode(), 1, 0, None)
                want = dataset._convert_lines(dataset._content_lines(text), 1)
                if compiled is None:
                    assert not _in_normal_range(token, float(token)), text
                else:
                    assert compiled.tobytes() == want.tobytes(), text


def _subject_dataset(subjects, per_subject=3, joints=2, seed=0):
    rng = np.random.default_rng(seed)
    actions = []
    for s in subjects:
        for i in range(per_subject):
            actions.append(
                _random_action(rng, f"s{s}i{i}", subject=s, label=i % 2, joints=joints)
            )
    return Dataset(actions)


class TestSplits:
    def test_cross_subject_half_partitions_subjects(self):
        ds = _subject_dataset(range(1, 11))
        train, test = split_cross_subject(ds, seed=0)
        assert len(set(train.subject_set) & set(test.subject_set)) == 0
        assert len(train.subject_set) == 5
        assert len(test.subject_set) == 5
        assert set(train.subject_set) | set(test.subject_set) == set(range(1, 11))

    def test_odd_subject_count_gives_train_the_extra(self):
        ds = _subject_dataset([1, 2, 3])
        train, test = split_cross_subject(ds, seed=4)
        assert len(train.subject_set) == 2
        assert len(test.subject_set) == 1

    def test_split_is_deterministic_per_seed(self):
        ds = _subject_dataset(range(1, 9))
        a1, b1 = split_cross_subject(ds, seed=42)
        a2, b2 = split_cross_subject(ds, seed=42)
        assert a1.subject_set == a2.subject_set
        assert b1.subject_set == b2.subject_set
        seen = {split_cross_subject(ds, seed=s)[0].subject_set for s in range(12)}
        assert len(seen) > 1

    def test_split_requires_two_subjects(self):
        ds = _subject_dataset([1])
        with pytest.raises(ValueError):
            split_cross_subject(ds, seed=0)

    def test_loso_folds(self):
        ds = _subject_dataset([4, 2, 7])
        folds = splits_loso(ds)
        assert [test.subject_set for _, test in folds] == [(2,), (4,), (7,)]
        for train, test in folds:
            assert set(train.subject_set) == {2, 4, 7} - set(test.subject_set)
            assert len(train) + len(test) == len(ds)


class TestFilter:
    def test_keeps_only_requested_classes(self):
        ds = _subject_dataset(range(1, 5))
        sub = filter_action_set(ds, [0])
        assert sub.class_set == (0,)
        assert all(a.label == 0 for a in sub.actions)

    def test_unknown_class_warns(self):
        ds = _subject_dataset(range(1, 5))
        with pytest.warns(UserWarning, match="99"):
            sub = filter_action_set(ds, [0, 99])
        assert sub.class_set == (0,)

    def test_idempotent(self):
        ds = _subject_dataset(range(1, 5))
        once = filter_action_set(ds, [1])
        twice = filter_action_set(once, [1])
        assert [a.id for a in once.actions] == [a.id for a in twice.actions]

    def test_empty_result_fails(self):
        ds = _subject_dataset(range(1, 3))
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                filter_action_set(ds, ["nope"])
