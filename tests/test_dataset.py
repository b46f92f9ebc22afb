"""Tests for dataset types, the canonical file format, adapters, and splits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

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

    def test_directory_round_trip_with_loader(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = Dataset([_random_action(rng, f"c{i}", subject=i % 3 + 1) for i in range(6)])
        write_canonical_dataset(ds, tmp_path / "out")
        back = load_canonical_dataset(tmp_path / "out")
        assert sorted(a.id for a in back.actions) == sorted(a.id for a in ds.actions)
        by_id = {a.id: a for a in back.actions}
        for a in ds.actions:
            assert_array_equal(by_id[a.id].frames, a.frames)

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

    def test_subject_pattern_must_match(self, tmp_path):
        _write_msrc12_sequence(tmp_path / "nosubject.csv", 50, SMALL_LAYOUT)
        (tmp_path / "nosubject.tags").write_text("20;x\n")
        with pytest.raises(ValueError, match="subject"):
            load_msrc12(tmp_path, layout=SMALL_LAYOUT)


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
