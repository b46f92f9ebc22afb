"""End-to-end tests of the `dam` command line, run in-process via `main`."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import multiprocessing
import os
import shutil
import tempfile
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dam import _native, cli, evaluation
from dam import dataset as dataset_module
from dam.classifier import action_windows, load_model, save_model
from dam.dataset import (
    Action,
    Dataset,
    load_canonical_dataset,
    load_msr_action3d,
    parse_action_file,
    write_canonical_dataset,
)
from dam.evaluation import ExperimentConfig
from dam.preprocess import PreprocessParams, preprocess_action
from dam.som import bmu_batch
from dam.synthetic import make_directional_dataset

FAST = ["--frames", "10", "--window", "2", "--grid", "3x3", "--epochs", "4"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def canon_dir(tmp_path_factory) -> Path:
    ds = make_directional_dataset(
        classes=3, subjects=4, instances=2, raw_frames=20, joints=3, seed=11
    )
    d = tmp_path_factory.mktemp("canonical_data")
    write_canonical_dataset(ds, d)
    return d


@pytest.fixture(scope="module")
def action3d_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("action3d_data")
    rng = np.random.default_rng(4)
    for a in (1, 2):
        for s in (1, 2):
            for e in (1, 2):
                records = np.column_stack(
                    [rng.normal(size=(5 * 20, 3)), np.ones(5 * 20)]
                )
                text = "\n".join(" ".join(f"{v:.6f}" for v in row) for row in records)
                (d / f"a{a:02d}_s{s:02d}_e{e:02d}_skeleton.txt").write_text(text + "\n")
    return d


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, canon_dir) -> Path:
    path = tmp_path_factory.mktemp("model") / "model.json"
    code = cli.main(["train", str(canon_dir), "-o", str(path), *FAST, "--seed", "3"])
    assert code == 0
    return path


# Each edit of a valid model file's payload, keyed by the field its error names.
MALFORMED_MODEL_EDITS = {
    "JSON object": lambda p: [],
    "'grid'": lambda p: {**p, "grid": []},
    "'grid.rows'": lambda p: {**p, "grid": {**p["grid"], "rows": 3.0}},
    "'grid.codebook'": lambda p: {**p, "grid": {**p["grid"], "codebook": {}}},
    "'preprocess'": lambda p: {**p, "preprocess": []},
    "'preprocess.frames'": lambda p: {**p, "preprocess": {**p["preprocess"], "frames": "x"}},
    "'preprocess.window'": lambda p: {**p, "preprocess": {**p["preprocess"], "window": True}},
    "'preprocess.norm_epsilon'": lambda p: {
        **p, "preprocess": {k: v for k, v in p["preprocess"].items() if k != "norm_epsilon"}
    },
    "'preprocess.speed'": lambda p: {**p, "preprocess": {**p["preprocess"], "speed": 1}},
    "'preprocess.smoothing_sigma' must be a finite number": lambda p: {
        **p, "preprocess": {**p["preprocess"], "smoothing_sigma": 10 ** 400}},
    "'joint_count'": lambda p: {**p, "joint_count": "3"},
    "'classes'": lambda p: {**p, "classes": 3},
    "'classes[0]' must be a JSON integer or string, got True":
        lambda p: {**p, "classes": [True, 1, 2]},
    "'classes[0]' must be a JSON integer or string, got [0]":
        lambda p: {**p, "classes": [[0], 1, 2]},
    "unknown field 'extra'": lambda p: {**p, "extra": 1},
    "unknown field 'grid.extra'": lambda p: {**p, "grid": {**p["grid"], "extra": 1}},
    "unknown field 'cluster_class_probs'": lambda p: {**p, "cluster_class_probs": [[1.0]]},
    "the arrays after line 1 hold": lambda p: {**p, "classes": [*p["classes"], 3]},
}

# Each edit of the float64 values after a valid model file's line 1, given the
# offset of the first probability and the class count, keyed by its error.
MODEL_BODY_EDITS = {
    "the arrays after line 1 hold": lambda data, at, classes: data[:-1],
    "codebook contains non-finite values": lambda data, at, classes: (
        data[:at - 8] + np.array([np.inf], "<f8").tobytes() + data[at:]),
    "cluster_class_probs contains negative entries": lambda data, at, classes: (
        data[:at] + np.array([-0.5], "<f8").tobytes() + data[at + 8:]),
    "cluster_class_probs row 0 sums to": lambda data, at, classes: (
        data[:at] + np.full(classes, 0.4, "<f8").tobytes() + data[at + 8 * classes:]),
}


class TestConvert:
    def test_action3d_round_trip(self, capsys, tmp_path, action3d_dir):
        out = tmp_path / "canon"
        code, stdout, _ = run(capsys, "convert", str(action3d_dir), str(out),
                              "--format", "action3d")
        assert code == 0
        assert "8 actions (2 classes, 2 subjects)" in stdout
        converted = load_canonical_dataset(out)
        original = load_msr_action3d(action3d_dir)
        assert {a.id for a in converted} == {a.id for a in original}
        by_id = {a.id: a for a in original}
        for action in converted:
            np.testing.assert_array_equal(action.frames, by_id[action.id].frames)
            assert action.label == by_id[action.id].label
            assert action.subject == by_id[action.id].subject

    def test_rerun_is_byte_identical(self, capsys, tmp_path, action3d_dir):
        out = tmp_path / "canon"
        run(capsys, "convert", str(action3d_dir), str(out), "--format", "action3d")
        first = tree_bytes(out)
        run(capsys, "convert", str(action3d_dir), str(out), "--format", "action3d")
        assert tree_bytes(out) == first

    def test_bad_raw_line_is_one_error_line(self, capsys, tmp_path, action3d_dir):
        src = tmp_path / "src"
        shutil.copytree(action3d_dir, src)
        dump = sorted(src.iterdir())[0]
        dump.write_text(dump.read_text().replace("1.000000", "x", 1))
        code, stdout, stderr = run(capsys, "convert", str(src), str(tmp_path / "out"),
                                   "--format", "action3d")
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {dump.name}: line 1: unparseable number\n"

    def test_empty_directory_fails_with_no_input_files(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, stderr = run(capsys, "convert", str(empty), str(tmp_path / "out"))
        assert code != 0
        assert stderr.startswith("error: ")
        assert "no input files" in stderr
        assert stderr.count("\n") == 1

    def test_exclusion_file_copied_by_default_and_applied_on_request(
        self, capsys, tmp_path, canon_dir
    ):
        src = tmp_path / "src"
        shutil.copytree(canon_dir, src)
        victim = sorted(p.stem for p in src.glob("*.txt"))[0]
        (src / "exclude.txt").write_text(f"{victim}\n")

        out = tmp_path / "copied"
        code, stdout, _ = run(capsys, "convert", str(src), str(out))
        assert code == 0
        assert "24 actions" in stdout
        assert (out / "exclude.txt").read_text() == f"{victim}\n"

        baked = tmp_path / "baked"
        code, stdout, _ = run(capsys, "convert", str(src), str(baked), "--apply-exclusions")
        assert code == 0
        assert "23 actions" in stdout
        assert not (baked / "exclude.txt").exists()
        assert not (baked / f"{victim}.txt").exists()

    def test_msrc12_with_layout_file(self, capsys, tmp_path):
        src = tmp_path / "msrc"
        src.mkdir()
        layout = {
            "values_per_frame": 9,
            "first_joint_column": 1,
            "joint_stride": 4,
            "joint_count": 2,
        }
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps(layout))
        rng = np.random.default_rng(9)
        table = rng.normal(size=(10, 9))
        (src / "gesture_p06_x1.csv").write_text(
            "\n".join(",".join(f"{v:.5f}" for v in row) for row in table) + "\n"
        )
        (src / "gesture_p06_x1.tags").write_text("4;1\n9;2\n")
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "convert", str(src), str(out),
                              "--format", "msrc12", "--layout", str(layout_path))
        assert code == 0
        assert "2 actions (2 classes, 1 subjects)" in stdout
        ids = sorted(p.stem for p in out.glob("*.txt"))
        assert ids == ["gesture_p06_x1_i001", "gesture_p06_x1_i002"]

    @pytest.mark.parametrize("fmt", ["msrc12", "action3d"])
    def test_applying_an_exclusion_list_that_names_every_action_exits_1(
        self, capsys, tmp_path, action3d_dir, fmt
    ):
        src = tmp_path / "src"
        if fmt == "action3d":
            shutil.copytree(action3d_dir, src)
            ids = [p.stem for p in src.glob("a*_s*_e*")]
        else:
            src.mkdir()
            table = np.random.default_rng(9).normal(size=(10, 81))
            np.savetxt(src / "gesture_p06.csv", table, fmt="%.5f", delimiter=",")
            (src / "gesture_p06.tags").write_text("4;1\n9;2\n")
            ids = ["gesture_p06_i001", "gesture_p06_i002"]
        (src / "exclude.txt").write_text("".join(f"{i}\n" for i in ids))
        code, _, stderr = run(capsys, "convert", str(src), str(tmp_path / "out"),
                              "--apply-exclusions", "--format", fmt)
        assert (code, stderr) == (1, f"error: all actions in {src} are excluded\n")

    def test_msrc12_sequence_whose_ids_read_as_comments_is_not_converted(self, capsys,
                                                                          tmp_path):
        # `#g_p01_i001,...` would be a comment line, and the file unreadable.
        src = tmp_path / "msrc"
        src.mkdir()
        table = np.random.default_rng(9).normal(size=(10, 81))
        np.savetxt(src / "#g_p01.csv", table, fmt="%.5f", delimiter=",")
        (src / "#g_p01.tags").write_text("9;1\n")
        out = tmp_path / "out"
        code, stdout, stderr = run(capsys, "convert", str(src), str(out), "--format", "msrc12")
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: action '#g_p01_i001': header ")
        assert not out.exists()

    def test_msrc12_skips_a_subdirectory_named_like_a_sequence(self, capsys, tmp_path):
        src = tmp_path / "msrc"
        src.mkdir()
        (src / "gesture_p06_x1.csv").write_text(("0" + ",0" * 80 + "\n") * 40)
        (src / "gesture_p06_x1.tags").write_text("20;1\n35;2\n")
        (src / "zz.csv").mkdir()
        (src / "zz.tags").write_text("5;1\n")
        out = tmp_path / "out"
        code, stdout, stderr = run(capsys, "convert", str(src), str(out), "--format", "msrc12")
        assert (code, stderr) == (0, "")
        assert "2 actions" in stdout
        assert sorted(p.stem for p in out.glob("*.txt")) == ["gesture_p06_x1_i001",
                                                             "gesture_p06_x1_i002"]

    def test_int_and_string_labels_on_one_frame_is_one_error_line(self, capsys, tmp_path):
        # The span extent gives the second marker on frame 20 no frames.
        src = tmp_path / "msrc"
        src.mkdir()
        (src / "gesture_p06_x1.csv").write_text(("0" + ",0" * 80 + "\n") * 40)
        (src / "gesture_p06_x1.tags").write_text("20;1\n20;walk\n35;2\n")
        code, _, stderr = run(capsys, "convert", str(src), str(tmp_path / "out"),
                              "--format", "msrc12")
        assert code == 1
        assert stderr == ("error: gesture_p06_x1.tags: annotation at frame 20 yields an "
                          "instance with fewer than 2 frames\n")

    @pytest.mark.parametrize("key, value", [
        ("joint_count", "2"),
        ("coord_offsets", 5),
        ("coord_offsets", [0, 1.5, 2]),
        ("subject_pattern", 7),
        ("timestamp_column", 0),
    ])
    def test_mistyped_or_unknown_layout_key_named_in_error(self, capsys, tmp_path, key, value):
        src = tmp_path / "msrc"
        src.mkdir()
        (src / "gesture_p06_x1.csv").write_text("0" + ",0" * 80 + "\n")
        (src / "gesture_p06_x1.tags").write_text("0;1\n")
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps({key: value}))
        code, _, stderr = run(capsys, "convert", str(src), str(tmp_path / "out"),
                              "--format", "msrc12", "--layout", str(layout_path))
        assert code == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert key in stderr


    @pytest.mark.parametrize("layout", [
        {"joint_count": 100_000_000_000, "values_per_frame": 1_000_000_000_000},
        {"values_per_frame": 10**20},
    ], ids=["huge-map", "huge-width"])
    def test_layout_wider_than_the_table_is_one_error_line(self, capsys, tmp_path, layout):
        # The column map of the first layout would take ~745 GiB; the table's
        # width check must reject the file before the map is built. No width
        # may fail in the table reader before that check.
        src = tmp_path / "msrc"
        src.mkdir()
        (src / "gesture_p06_x1.csv").write_text("0" + ",0" * 80 + "\n")
        (src / "gesture_p06_x1.tags").write_text("0;1\n")
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps(layout))
        code, _, stderr = run(capsys, "convert", str(src), str(tmp_path / "out"),
                              "--format", "msrc12", "--layout", str(layout_path))
        assert code == 1
        width = layout["values_per_frame"]
        assert stderr == f"error: gesture_p06_x1.csv: line 1: expected {width} values, got 81\n"

    def test_negative_layout_column_is_one_error_line(self, capsys, tmp_path):
        src = tmp_path / "msrc"
        src.mkdir()
        (src / "gesture_p06_x1.csv").write_text("0" + ",0" * 80 + "\n")
        (src / "gesture_p06_x1.tags").write_text("0;1\n")
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps(
            {"values_per_frame": 0, "first_joint_column": -10, "joint_count": 1}))
        code, _, stderr = run(capsys, "convert", str(src), str(tmp_path / "out"),
                              "--format", "msrc12", "--layout", str(layout_path))
        assert code == 2
        assert stderr == (f"error: layout {layout_path}: "
                          "first_joint_column must be >= 0, got -10\n")


class TestTrain:
    def test_writes_model_with_requested_shape(self, capsys, tmp_path, canon_dir):
        path = tmp_path / "m.json"
        code, stdout, _ = run(capsys, "train", str(canon_dir), "-o", str(path),
                              *FAST, "--seed", "3")
        assert code == 0
        assert "3x3 grid (9 units), 3 classes, 24 actions" in stdout
        model = load_model(path)
        assert model.grid.rows == 3 and model.grid.cols == 3
        assert model.classes == [0, 1, 2]
        assert model.params.window == 2
        assert model.joint_count == 3

    def test_same_seed_is_byte_identical(self, capsys, tmp_path, canon_dir):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "train", str(canon_dir), "-o", str(a), *FAST, "--seed", "7")
        run(capsys, "train", str(canon_dir), "-o", str(b), *FAST, "--seed", "7")
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_window_rejected(self, capsys, tmp_path, canon_dir):
        code, _, stderr = run(
            capsys, "train", str(canon_dir), "-o", str(tmp_path / "m.json"),
            "--frames", "10", "--window", "30", "--grid", "3x3",
        )
        assert code != 0
        assert "window" in stderr

    def test_config_file_with_flag_override(self, capsys, tmp_path, canon_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"frames": 10, "window": 1, "grid": "3x3", "epochs": 4, "seed": 3}
        ))
        path = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", str(canon_dir), "-o", str(path),
                         "--config", str(config), "--window", "2")
        assert code == 0
        assert load_model(path).params.window == 2

    def test_unknown_config_key_named_in_error(self, capsys, tmp_path, canon_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"frames": 10, "bogus_key": 1}))
        code, _, stderr = run(capsys, "train", str(canon_dir),
                              "-o", str(tmp_path / "m.json"), "--config", str(config))
        assert code == 2
        assert "bogus_key" in stderr

    def test_malformed_grid_rejected(self, capsys, tmp_path, canon_dir):
        code, _, stderr = run(capsys, "train", str(canon_dir),
                              "-o", str(tmp_path / "m.json"),
                              "--frames", "10", "--window", "2", "--grid", "3by3")
        assert code == 2
        assert "grid" in stderr

    def test_missing_settings_named(self, capsys, tmp_path, canon_dir):
        code, _, stderr = run(capsys, "train", str(canon_dir),
                              "-o", str(tmp_path / "m.json"), "--frames", "10")
        assert code == 2
        assert "window" in stderr and "grid" in stderr

    def test_seed_env_var_used_as_default(self, capsys, tmp_path, canon_dir, monkeypatch):
        explicit = tmp_path / "explicit.json"
        run(capsys, "train", str(canon_dir), "-o", str(explicit), *FAST, "--seed", "9")
        monkeypatch.setenv(cli.SEED_ENV_VAR, "9")
        from_env = tmp_path / "env.json"
        run(capsys, "train", str(canon_dir), "-o", str(from_env), *FAST)
        assert from_env.read_bytes() == explicit.read_bytes()
        flag_wins = tmp_path / "flag.json"
        run(capsys, "train", str(canon_dir), "-o", str(flag_wins), *FAST, "--seed", "4")
        assert flag_wins.read_bytes() != explicit.read_bytes()

    def test_invalid_seed_env_var_rejected(self, capsys, tmp_path, canon_dir, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        code, _, stderr = run(capsys, "train", str(canon_dir),
                              "-o", str(tmp_path / "m.json"), *FAST)
        assert code == 2
        assert cli.SEED_ENV_VAR in stderr

    @pytest.mark.parametrize("key, value", [
        ("frames", "10"),
        ("frames", True),
        ("window", 2.5),
        ("grid", [3.7, 3]),
        ("grid", [3, True]),
        ("smoothing_radius", 2.0),
        ("smoothing_sigma", "1.0"),
        ("smoothing_sigma", False),
        ("epochs", 2.5),
        ("learning_rate", [0.5]),
        ("som_radius", ["a", 0.5]),
        ("seed", "3"),
        ("windows", [1.5]),
        ("grids", "3x3,3"),
        ("protocol", "leave-none-out"),
        ("action_sets", ["AS1"]),
        ("action_sets", {"AS1": 3}),
        ("action_sets", {}),
        ("window", 20),
        ("epochs", 0),
        ("smoothing_sigma", -1.0),
        ("learning_rate", [0.5, 0.9]),
        ("jobs", 0),
        ("jobs", -1),
        # json.loads reads NaN and Infinity as floats.
        ("smoothing_sigma", float("nan")),
        ("smoothing_sigma", float("inf")),
        ("norm_epsilon", float("nan")),
        ("norm_epsilon", float("inf")),
        # A JSON integer no float holds.
        pytest.param("smoothing_sigma", 10 ** 400, id="smoothing_sigma-401-digits"),
    ])
    def test_mistyped_config_value_named_in_error(self, capsys, tmp_path, canon_dir,
                                                  key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"frames": 10, "window": 2, "grid": "3x3", "epochs": 4, key: value}
        ))
        code, _, stderr = run(capsys, "train", str(canon_dir),
                              "-o", str(tmp_path / "m.json"), "--config", str(config))
        assert code == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert key in stderr
        assert not (tmp_path / "m.json").exists()


class TestClassify:
    def test_training_actions_get_their_own_class(self, capsys, canon_dir, model_path):
        target = canon_dir / "c0_s01_i00.txt"
        code, stdout, _ = run(capsys, "classify", "--model", str(model_path), str(target))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "id,predicted,score_0,score_1,score_2"
        cells = lines[1].split(",")
        assert cells[0] == "c0_s01_i00"
        assert cells[1] == "0"
        scores = [float(v) for v in cells[2:]]
        assert sum(scores) == pytest.approx(1.0, abs=1e-6)
        assert max(scores) == scores[0]

    def test_batch_preserves_input_order(self, capsys, canon_dir, model_path):
        second = canon_dir / "c2_s03_i01.txt"
        first = canon_dir / "c1_s02_i00.txt"
        code, stdout, _ = run(capsys, "classify", "--model", str(model_path),
                              str(second), str(first))
        assert code == 0
        ids = [line.split(",")[0] for line in stdout.splitlines()[1:]]
        assert ids == ["c2_s03_i01", "c1_s02_i00"]

    def test_directory_input_classifies_all_files_sorted(self, capsys, canon_dir, model_path):
        code, stdout, _ = run(capsys, "classify", "--model", str(model_path), str(canon_dir))
        assert code == 0
        ids = [line.split(",")[0] for line in stdout.splitlines()[1:]]
        assert ids == sorted(a.stem for a in canon_dir.glob("*.txt"))
        predicted = [line.split(",")[1] for line in stdout.splitlines()[1:]]
        truth = [i.split("_")[0][1:] for i in ids]
        agreement = np.mean([p == t for p, t in zip(predicted, truth)])
        assert agreement == 1.0

    def test_directory_input_skips_a_subdirectory_named_like_a_file(self, capsys, tmp_path,
                                                                     canon_dir, model_path):
        d = tmp_path / "with_subdir"
        shutil.copytree(canon_dir, d)
        (d / "zz.txt").mkdir()
        args = ["classify", "--model", str(model_path)]
        assert run(capsys, *args, str(d)) == run(capsys, *args, str(canon_dir))

    def test_joint_count_mismatch_fails(self, capsys, tmp_path, model_path):
        other = make_directional_dataset(
            classes=2, subjects=2, instances=1, raw_frames=20, joints=5, seed=1
        )
        d = tmp_path / "other"
        write_canonical_dataset(other, d)
        target = next(iter(sorted(d.glob("*.txt"))))
        code, _, stderr = run(capsys, "classify", "--model", str(model_path), str(target))
        assert code == 1
        assert "joint" in stderr or "5" in stderr

    def test_joint_count_mismatch_in_a_directory_names_the_file(self, capsys, tmp_path,
                                                                model_path):
        other = make_directional_dataset(
            classes=2, subjects=2, instances=1, raw_frames=20, joints=5, seed=1
        )
        first = min(write_canonical_dataset(other, tmp_path / "other"))
        code, stdout, stderr = run(capsys, "classify", "--model", str(model_path),
                                   str(tmp_path / "other"))
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: {first}: action has 5 joints but the model was trained with 3\n"

    def test_zero_evidence_warns_once_on_stderr(self, capsys, tmp_path, canon_dir, model_path):
        targets = [str(canon_dir / "c1_s02_i00.txt"), str(canon_dir / "c2_s03_i01.txt")]
        code, stdout, stderr = run(capsys, "classify", "--model", str(model_path), *targets)
        assert code == 0
        assert stderr == ""
        model = load_model(model_path)
        model.cluster_class_probs = np.zeros_like(model.cluster_class_probs)
        empty = tmp_path / "empty.json"
        save_model(model, empty)
        code, stdout, stderr = run(capsys, "classify", "--model", str(empty), *targets)
        assert code == 0
        assert stdout == (
            "id,predicted,score_0,score_1,score_2\n"
            "c1_s02_i00,0,0,0,0\n"
            "c2_s03_i01,0,0,0,0\n"
        )
        [line] = stderr.splitlines()
        assert line.startswith("warning: 2 of 2 actions had zero evidence")

    @pytest.mark.parametrize("field", list(MALFORMED_MODEL_EDITS))
    def test_malformed_model_file_gives_one_error_line(self, capsys, tmp_path, canon_dir,
                                                       model_path, rewrite_model_payload,
                                                       field):
        bad = tmp_path / "bad.json"
        rewrite_model_payload(model_path, MALFORMED_MODEL_EDITS[field], bad)
        code, stdout, stderr = run(capsys, "classify", "--model", str(bad),
                                   str(canon_dir / "c0_s01_i00.txt"))
        assert code == 1
        assert stdout == ""
        [line] = stderr.splitlines()
        prefix = f"error: {bad}: "
        assert line.startswith(prefix)
        assert field in line[len(prefix):]

    @pytest.mark.parametrize("error", list(MODEL_BODY_EDITS))
    def test_damaged_model_body_gives_one_error_line(self, capsys, tmp_path, canon_dir,
                                                     model_path, error):
        model = load_model(model_path)
        data = model_path.read_bytes()
        at = data.index(b"\n") + 1 + 8 * model.grid.codebook.size
        bad = tmp_path / "bad.json"
        bad.write_bytes(MODEL_BODY_EDITS[error](data, at, len(model.classes)))
        code, stdout, stderr = run(capsys, "classify", "--model", str(bad),
                                   str(canon_dir / "c0_s01_i00.txt"))
        assert (code, stdout) == (1, "")
        [line] = stderr.splitlines()
        assert line.startswith(f"error: {bad}: {error}")

    def test_format_3_model_file_gives_one_error_line(self, capsys, tmp_path, canon_dir,
                                                      model_path):
        # A format-3 file held the probabilities on line 1 and its codebook's
        # hex as a JSON string on line 2.
        model = load_model(model_path)
        payload = json.loads(model_path.read_bytes().split(b"\n")[0])
        payload["format_version"] = "3"
        payload["cluster_class_probs"] = model.cluster_class_probs.tolist()
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
                       + f'"{model.grid.codebook.tobytes().hex()}"\n')
        code, stdout, stderr = run(capsys, "classify", "--model", str(old),
                                   str(canon_dir / "c0_s01_i00.txt"))
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: {old}: unsupported model format version '3' (this build "
                          "reads '4'); re-create it with `dam train`\n")

    @pytest.mark.parametrize("group", [2, cli._CLASSIFY_GROUP], ids=["groups-of-2", "one-group"])
    def test_one_call_prints_what_one_file_calls_print(self, capsys, monkeypatch, tmp_path,
                                                       canon_dir, model_path, group):
        # The units one action's windows win carry no class in this model, so
        # that action, and any other whose windows all land there, has zero
        # evidence.
        model = load_model(model_path)
        files = sorted(canon_dir.glob("*.txt"))
        silent = action_windows(model, parse_action_file(files[3].read_bytes()))
        model.cluster_class_probs[bmu_batch(model.grid, silent)] = 0.0
        path = tmp_path / "model.json"
        save_model(model, path)
        monkeypatch.setattr(cli, "_CLASSIFY_GROUP", group)
        args = ["classify", "--model", str(path)]
        singles = [run(capsys, *args, str(f)) for f in files]
        code, stdout, stderr = run(capsys, *args, *map(str, files))
        assert code == 0 and {c for c, _, _ in singles} == {0}
        header = singles[0][1].splitlines(keepends=True)[0]
        assert stdout == header + "".join(out.splitlines(keepends=True)[1] for _, out, _ in singles)
        warned = [err for _, _, err in singles if err]
        assert 0 < len(warned) < len(files)
        assert stderr == warned[0].replace("1 of 1", f"{len(warned)} of {len(files)}")

    def test_a_bad_file_in_a_later_group_is_named_and_nothing_is_printed(
            self, capsys, monkeypatch, tmp_path, canon_dir, model_path):
        d = tmp_path / "inputs"
        shutil.copytree(canon_dir, d)
        bad = sorted(d.glob("*.txt"))[4]
        bad.write_text(bad.read_text() + "1 2 3\n")
        args = ["classify", "--model", str(model_path)]
        code, stdout, alone = run(capsys, *args, str(bad))
        assert code == 1 and stdout == ""
        assert alone.startswith(f"error: {bad}: line ") and alone.count("\n") == 1
        monkeypatch.setattr(cli, "_CLASSIFY_GROUP", 2)
        assert run(capsys, *args, str(d)) == (1, "", alone)

    def test_missing_input_fails(self, capsys, model_path, tmp_path):
        code, _, stderr = run(capsys, "classify", "--model", str(model_path),
                              str(tmp_path / "ghost.txt"))
        assert code == 2
        assert "ghost.txt" in stderr


class TestParser:
    def test_main_builds_the_parser_once(self):
        assert cli._parser() is cli._parser()

    def test_calls_in_turn_give_what_a_fresh_parser_gives(self, capsys, monkeypatch, tmp_path,
                                                         canon_dir, model_path):
        calls = [
            ["--help"],
            ["classify", "--bogus"],
            ["classify", "--model", str(model_path), str(canon_dir)],
            ["evaluate", str(canon_dir), *FAST, "--runs", "1", "--jobs", "1", "--output-dir"],
            ["classify", "--help"],
            ["evaluate", str(canon_dir), "--frames", "10", "--output-dir"],
            ["classify", "--model", str(model_path), str(canon_dir / "c0_s01_i00.txt")],
        ]

        def outcomes(tag):
            results = []
            for i, argv in enumerate(calls):
                out = tmp_path / f"{tag}{i}"
                if argv[-1] == "--output-dir":
                    argv = [*argv, str(out)]
                code, stdout, stderr = run(capsys, *argv)
                results.append((code, stdout, stderr, tree_bytes(out) if out.is_dir() else None))
            return results

        shared = outcomes("shared")
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert outcomes("fresh") == shared
        assert [code for code, *_ in shared] == [0, 2, 0, 0, 0, 2, 0]


# Text an edit may splice into an input: tokens that some reader treats
# specially, and one byte that is not UTF-8 ("\udcff", written as 0xff).
_SNIPPETS = ["", " ", "\n", "#", ",", ";", ":", "x", "0", "-1", "1.5", "1e999", "nan",
             "-inf", "1_0", "0x1p3", '"', "{", "}", "[", "]", "null", "true", "\x00",
             "\u00e9", "\udcff"]

# (where, as a fraction of the text; characters deleted there; text inserted there)
_EDITS = st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 12), st.sampled_from(_SNIPPETS)),
                  min_size=1, max_size=3)


def _edited(text: str | bytes, edits) -> bytes:
    if isinstance(text, bytes):
        text = text.decode("utf-8", "surrogateescape")
    for where, cut, insert in edits:
        at = int(where * len(text))
        text = text[:at] + insert + text[at + cut:]
    return text.encode("utf-8", "surrogateescape")


def _no_content_line(data: bytes) -> bool:
    """True when `data` is UTF-8 text whose every line is blank or a # comment."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return False
    return all(not line.strip() or line.strip().startswith("#") for line in text.splitlines())


@pytest.fixture(scope="module")
def contract_inputs(canon_dir, model_path) -> dict:
    """Input kind -> (valid files' text or bytes by name, the file edits hit, `dam` argv).

    In the argv, "{d}" stands for the directory that holds the files.
    """
    rng = np.random.default_rng(12)
    canonical = (canon_dir / "c1_s02_i01.txt").read_text()
    dump = "\n".join(" ".join(f"{v:.3f}" for v in row) for row in rng.normal(size=(40, 4)))
    msrc12 = {
        "g_p01.csv": "\n".join(",".join(f"{v:.3f}" for v in row)
                               for row in rng.normal(size=(10, 9))) + "\n",
        "g_p01.tags": "# frame;class\n4;1\n9;2\n",
        "layout.json": json.dumps({"values_per_frame": 9, "first_joint_column": 1,
                                   "joint_stride": 4, "joint_count": 2}),
    }
    msrc12_argv = ["convert", "{d}", "{d}/out", "--format", "msrc12",
                   "--layout", "{d}/layout.json"]
    return {
        "canonical file (classify)": (
            {"c.txt": canonical}, "c.txt", ["classify", "--model", str(model_path), "{d}"]),
        "canonical file (convert)": ({"c.txt": canonical}, "c.txt", ["convert", "{d}", "{d}/out"]),
        "model file": (
            {"c.txt": canonical, "model.json": model_path.read_bytes()}, "model.json",
            ["classify", "--model", "{d}/model.json", "{d}/c.txt"]),
        "MSR-Action3D dump": (
            {"a01_s01_e01_skeleton.txt": dump + "\n"}, "a01_s01_e01_skeleton.txt",
            ["convert", "{d}", "{d}/out", "--format", "action3d"]),
        "MSRC-12 table": (msrc12, "g_p01.csv", msrc12_argv),
        "MSRC-12 tags": (msrc12, "g_p01.tags", msrc12_argv),
        "layout file": (msrc12, "layout.json", msrc12_argv),
    }


class TestInputContract:
    """Random edits of every input kind end in success or one error line, never a traceback.

    The enumerated cases above pin the wording of particular errors; this
    checks the contract itself on inputs nobody wrote by hand.
    """

    @pytest.mark.parametrize("kind", [
        "canonical file (classify)", "canonical file (convert)", "model file",
        "MSR-Action3D dump", "MSRC-12 table", "MSRC-12 tags", "layout file",
    ])
    @settings(max_examples=30, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=_EDITS)
    def test_edited_input_exits_cleanly(self, capsys, tmp_path_factory, contract_inputs,
                                        kind, edits):
        files, target, argv = contract_inputs[kind]
        d = tmp_path_factory.mktemp("edited")
        for name, text in files.items():
            (d / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        edited = _edited(files[target], edits)
        (d / target).write_bytes(edited)
        # An exception out of main would be a traceback from the console script.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, stderr = run(capsys, *(arg.replace("{d}", str(d)) for arg in argv))
        assert code in (0, 1, 2)
        if code:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
        # A tags file edited down to no annotation line is the one edit that
        # warns: its sequence is skipped.
        skipped = kind == "MSRC-12 tags" and _no_content_line(edited)
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "g_p01.tags: empty annotation file, sequence skipped")] * skipped


class TestEvaluate:
    def test_cross_subject_writes_all_csvs(self, capsys, tmp_path, canon_dir):
        out = tmp_path / "out"
        code, stdout, _ = run(
            capsys, "evaluate", str(canon_dir), "--output-dir", str(out),
            *FAST, "--runs", "2", "--seed", "42", "--jobs", "1",
            "--protocol", "cross-subject",
        )
        assert code == 0
        assert "mean accuracy" in stdout and "±" in stdout
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "run,window,clusters,seed,accuracy"
        assert len(lines) == 3
        for name in ("confusion.csv", "probmatrix.csv", "per_subject.csv"):
            assert (out / name).is_file()

    def test_same_seed_reproduces_results_byte_for_byte(self, capsys, tmp_path, canon_dir):
        args = [*FAST, "--runs", "2", "--seed", "42", "--jobs", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "evaluate", str(canon_dir), "--output-dir", str(a), *args)
        run(capsys, "evaluate", str(canon_dir), "--output-dir", str(b), *args)
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "confusion.csv").read_bytes() == (b / "confusion.csv").read_bytes()

    def test_a_subdirectory_named_like_a_file_is_skipped(self, capsys, tmp_path, canon_dir):
        d = tmp_path / "with_subdir"
        shutil.copytree(canon_dir, d)
        (d / "zz.txt").mkdir()
        args = [*FAST, "--runs", "1", "--seed", "42", "--jobs", "1"]
        outputs = []
        for data in (canon_dir, d):
            out = tmp_path / f"out_{data.name}"
            code, stdout, stderr = run(capsys, "evaluate", str(data), "--output-dir", str(out),
                                       *args)
            assert (code, stderr) == (0, "")
            outputs.append(tree_bytes(out))
        assert outputs[0] == outputs[1]

    def test_loso_emits_one_row_per_subject(self, capsys, tmp_path, canon_dir):
        out = tmp_path / "loso"
        code, stdout, _ = run(
            capsys, "evaluate", str(canon_dir), "--output-dir", str(out),
            *FAST, "--seed", "1", "--jobs", "1", "--protocol", "loso",
        )
        assert code == 0
        results = (out / "results.csv").read_text().splitlines()
        assert len(results) == 1 + 4  # header + one fold per subject
        subjects = (out / "per_subject.csv").read_text().splitlines()
        assert subjects[0] == "subject,accuracy"
        assert [line.split(",")[0] for line in subjects[1:]] == ["1", "2", "3", "4"]

    def test_jobs_default_to_the_cpus_the_process_may_use(self, capsys, tmp_path, canon_dir,
                                                          monkeypatch):
        # Pinned to one CPU of a larger machine, the default starts one worker.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        started, evaluate = [], cli._evaluate

        def recorded(dataset, experiments, jobs):  # notes the count, runs on one process
            started.append(jobs)
            return evaluate(dataset, experiments, 1)

        monkeypatch.setattr(cli, "_evaluate", recorded)
        args = ["evaluate", str(canon_dir), *FAST, "--runs", "1", "--seed", "2"]
        assert run(capsys, *args, "--output-dir", str(tmp_path / "a"))[0] == 0
        assert run(capsys, *args, "--output-dir", str(tmp_path / "b"), "--jobs", "2")[0] == 0
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert run(capsys, *args, "--output-dir", str(tmp_path / "c"))[0] == 0
        assert started == [1, 2, 8]

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_rejected_before_data_is_read(self, capsys, tmp_path, jobs):
        missing = str(tmp_path / "missing")
        for args in (["evaluate", missing, *FAST, "--output-dir", str(tmp_path / "out")],
                     ["sweep", missing, "--frames", "10", "--windows", "2", "--grids", "3x3",
                      "-o", str(tmp_path / "s.csv")]):
            code, _, stderr = run(capsys, *args, "--jobs", jobs)
            assert code == 2
            assert stderr == f"error: jobs must be >= 1, got {jobs}\n"
        assert list(tmp_path.iterdir()) == []

    def test_zero_runs_rejected(self, capsys, tmp_path, canon_dir):
        code, _, stderr = run(
            capsys, "evaluate", str(canon_dir), "--output-dir", str(tmp_path / "x"),
            *FAST, "--runs", "0",
        )
        assert code != 0
        assert "runs" in stderr

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("protocol", ["cross-subject", "loso"])
    def test_exclusion_modes(self, capsys, tmp_path, canon_dir, monkeypatch, protocol, jobs):
        data = tmp_path / "data"
        shutil.copytree(canon_dir, data)
        victims = sorted(p.stem for p in data.glob("*.txt"))[:2]
        (data / "exclude.txt").write_text("".join(f"{v}\n" for v in victims))
        args = [*FAST, "--runs", "2", "--seed", "5", "--jobs", str(jobs),
                "--protocol", protocol]
        parsed, preprocessed, pools = [], [], []
        monkeypatch.setattr(dataset_module, "parse_action_file",
                            lambda text: parsed.append(1) or parse_action_file(text))
        monkeypatch.setattr(evaluation, "preprocess_action",
                            lambda action, params: preprocessed.append(action.id)
                            or preprocess_action(action, params))

        class Counted(ProcessPoolExecutor):
            def __init__(self, *a, **kw):
                pools.append(self)
                super().__init__(*a, **kw)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", Counted)

        both = tmp_path / "both"
        code, stdout, _ = run(capsys, "evaluate", str(data), "--output-dir", str(both), *args)
        assert code == 0
        ids = sorted(p.stem for p in canon_dir.glob("*.txt"))
        assert len(parsed) == len(ids)  # one load for both passes
        assert sorted(preprocessed) == ids  # one preprocessing for both passes
        assert len(pools) == (jobs > 1)  # and at most one pool
        assert stdout.count("mean accuracy") == 2
        names = ["results", "confusion", "probmatrix", "per_subject"]
        assert sorted(tree_bytes(both)) == sorted(
            f"{name}{suffix}.csv" for name in names for suffix in ("", "_noexcl"))
        # The two passes differ, so a CSV written under the other's name shows.
        assert tree_bytes(both)["confusion.csv"] != tree_bytes(both)["confusion_noexcl.csv"]

        for mode, suffix in (("apply", ""), ("ignore", "_noexcl")):
            single = tmp_path / mode
            assert run(capsys, "evaluate", str(data), "--output-dir", str(single), *args,
                       "--exclusions", mode)[0] == 0
            assert tree_bytes(single) == {
                f"{name}.csv": (both / f"{name}{suffix}.csv").read_bytes() for name in names}

    def test_no_exclusion_file_means_single_report(self, capsys, tmp_path, canon_dir):
        out = tmp_path / "plain"
        code, stdout, _ = run(
            capsys, "evaluate", str(canon_dir), "--output-dir", str(out),
            *FAST, "--runs", "1", "--seed", "2", "--jobs", "1",
        )
        assert code == 0
        assert stdout.count("mean accuracy") == 1
        assert not (out / "results_noexcl.csv").exists()


class TestSweep:
    def test_flag_driven_sweep(self, capsys, tmp_path, canon_dir):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            capsys, "sweep", str(canon_dir), "-o", str(out),
            "--frames", "10", "--epochs", "4",
            "--windows", "1,2", "--grids", "2x2",
            "--runs", "1", "--seed", "5", "--jobs", "1",
        )
        assert code == 0
        assert "2 rows" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "subset,window,grid_rows,grid_cols,clusters,runs,mean_accuracy,std_accuracy"
        assert len(lines) == 3
        assert all(line.startswith("all,") for line in lines[1:])

    def test_action_sets_add_mean_rows(self, capsys, tmp_path, canon_dir):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps(
            {"_doc": "two overlapping class subsets", "even": [0, 2], "low": [0, 1]}
        ))
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", str(canon_dir), "-o", str(out),
            "--frames", "10", "--epochs", "4",
            "--windows", "2", "--grids", "2x2,3x3",
            "--runs", "1", "--seed", "5", "--jobs", "1",
            "--action-sets", str(sets_path),
        )
        assert code == 0
        subsets = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert subsets == ["even", "low", "mean", "even", "low", "mean"]

    def test_config_supplies_axes_and_flags_override(self, capsys, tmp_path, canon_dir):
        config = tmp_path / "sweep_config.json"
        config.write_text(json.dumps({
            "frames": 10, "windows": [1, 2], "grids": ["2x2"],
            "epochs": 4, "runs": 1, "seed": 5, "jobs": 1,
        }))
        out = tmp_path / "a.csv"
        code, _, _ = run(capsys, "sweep", str(canon_dir), "-o", str(out),
                         "--config", str(config))
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

        narrowed = tmp_path / "b.csv"
        code, _, _ = run(capsys, "sweep", str(canon_dir), "-o", str(narrowed),
                         "--config", str(config), "--windows", "2")
        assert code == 0
        assert len(narrowed.read_text().splitlines()) == 2

    def test_missing_axes_rejected(self, capsys, tmp_path, canon_dir):
        code, _, stderr = run(capsys, "sweep", str(canon_dir),
                              "-o", str(tmp_path / "s.csv"), "--frames", "10")
        assert code == 2
        assert "windows" in stderr and "grids" in stderr

    @pytest.mark.parametrize("sets", [{"AS1": [[0], 1]}, {"AS1": [{"a": 1}]}])
    def test_unhashable_action_set_labels_rejected(self, capsys, tmp_path, canon_dir, sets):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps(sets))
        code, _, stderr = run(
            capsys, "sweep", str(canon_dir), "-o", str(tmp_path / "s.csv"),
            "--frames", "10", "--windows", "2", "--grids", "2x2",
            "--action-sets", str(sets_path),
        )
        assert code == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "AS1" in stderr

    @pytest.mark.parametrize("windows, entry", [("2,10", "windows[1]"), ("0", "windows[0]")])
    def test_bad_window_rejected_before_training(self, capsys, tmp_path, canon_dir,
                                                 monkeypatch, windows, entry):
        trained = []
        monkeypatch.setattr(evaluation, "train_som", lambda *a, **kw: trained.append(a))
        out = tmp_path / "s.csv"
        got, _, stderr = run(capsys, "sweep", str(canon_dir), "-o", str(out),
                             "--frames", "10", "--windows", windows, "--grids", "2x2")
        assert got == 2
        assert stderr.startswith(f"error: {entry}: window must be in")
        assert stderr.count("\n") == 1
        assert trained == [] and not out.exists()

    @pytest.mark.parametrize("axes, message", [
        (["--windows", "3,3", "--grids", "3x3"], "windows lists 3 twice"),
        (["--windows", "2,3", "--grids", "3x3,2x2,3X3"], "grids lists (3, 3) twice"),
    ], ids=["windows", "grids"])
    def test_an_axis_listing_an_entry_twice_is_refused_before_reading(self, capsys, tmp_path,
                                                                      axes, message):
        # The data directory does not exist: reading it would fail with status 1.
        out = tmp_path / "s.csv"
        code, stdout, stderr = run(capsys, "sweep", str(tmp_path / "missing"), "-o", str(out),
                                   "--frames", "10", *axes)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {message}\n"
        assert not out.exists()

    def test_a_config_grid_listed_twice_is_refused(self, capsys, tmp_path, canon_dir):
        config = tmp_path / "sweep_config.json"
        config.write_text(json.dumps({"frames": 10, "windows": [2], "grids": [[2, 2], "2x2"]}))
        code, _, stderr = run(capsys, "sweep", str(canon_dir), "-o", str(tmp_path / "s.csv"),
                              "--config", str(config))
        assert code == 2
        assert stderr == "error: grids lists (2, 2) twice\n"

    def test_action_sets_of_absent_classes_report_the_filter(self, capsys, tmp_path,
                                                               canon_dir):
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps({"typo": [7]}))
        out = tmp_path / "s.csv"
        with pytest.warns(UserWarning, match="^class 7 not present in dataset, ignoring$"):
            code, stdout, stderr = run(
                capsys, "sweep", str(canon_dir), "-o", str(out), "--frames", "10",
                "--windows", "2", "--grids", "2x2", "--action-sets", str(sets_path))
        assert (code, stdout) == (1, "")
        assert stderr == "error: no actions remain after filtering to classes [7]\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["windows", "grids"])
    def test_empty_axis_rejected(self, capsys, tmp_path, canon_dir, key):
        config = tmp_path / "sweep_config.json"
        config.write_text(json.dumps({"frames": 10, "windows": [2], "grids": ["2x2"], key: []}))
        code, _, stderr = run(capsys, "sweep", str(canon_dir), "-o", str(tmp_path / "s.csv"),
                              "--config", str(config))
        assert code == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert key in stderr


# SHA-256 of each file `dam evaluate` writes on `pinned_dir`, by protocol.
EVALUATE_DIGESTS = {
    "cross-subject": {
        "confusion.csv": "953e828959ff4998e244922dc33ddc4969a729b3f884f99a163c2fad6ebc8da1",
        "per_subject.csv": "dc6568a3acb52223bbb01edf0ef051ee936fbf3ab9bec699c1ae7beb01f18da8",
        "probmatrix.csv": "465bbf117bb34fa21c37bf4824b294290aa8f6b6761988580b0dcdc787d788d9",
        "results.csv": "e0111192d7934528896bcfac8b05c2cde9d4e939f5f432d4bd4ef9f422f28f05",
    },
    "loso": {
        "confusion.csv": "212d03534574faa575d3121cd63963a70bc2b15829e383b23ac72f495a145fe0",
        "per_subject.csv": "14962b28cef7539644b2e423646b46fd960bff5a6f35194003b3704a56b56391",
        "probmatrix.csv": "465bbf117bb34fa21c37bf4824b294290aa8f6b6761988580b0dcdc787d788d9",
        "results.csv": "f678ad79f2eb1b0804978a45bcd696468cee7cb99e51035e7f3449efda84f703",
    },
}
PINNED_ARGS = ["--frames", "12", "--window", "3", "--grid", "5x5", "--epochs", "2",
               "--seed", "4"]


@pytest.fixture(scope="module")
def pinned_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("pinned_data")
    write_canonical_dataset(make_directional_dataset(
        classes=4, subjects=6, instances=4, raw_frames=30, joints=5, seed=3), d)
    return d


class TestPinnedBytes:
    """`dam evaluate` and `dam train` write the bytes they wrote when each run
    went through a window table pair of its own and `dam train` fitted its
    model itself. The model's codebook is bound to numpy's AVX-512 exp, as
    `TestPinnedDigests` in test_som.py is (ROADMAP item 2)."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("protocol", sorted(EVALUATE_DIGESTS))
    def test_evaluate_csvs(self, capsys, tmp_path, pinned_dir, protocol, jobs):
        out = tmp_path / "out"
        code, _, _ = run(capsys, "evaluate", str(pinned_dir), *PINNED_ARGS, "--runs", "3",
                         "--protocol", protocol, "--jobs", jobs, "--output-dir", str(out))
        assert code == 0
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in tree_bytes(out).items()} == EVALUATE_DIGESTS[protocol]

    def test_train_model_file(self, capsys, tmp_path, pinned_dir):
        path = tmp_path / "model.json"
        assert run(capsys, "train", str(pinned_dir), *PINNED_ARGS, "-o", str(path))[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6af96d02dafb2b84ec03af0084512e716485cec750150ea9bf9c04ebfe83dcde")


# SHA-256 of each file `dam evaluate` writes on `noisy_dir`, by protocol.
NOISY_EVALUATE_DIGESTS = {
    "cross-subject": {
        "confusion.csv": "1a0f6855df410b93101bac27e78912395f2433c6683a6005a833f29a9dc8923a",
        "per_subject.csv": "6b60d05511c69c53a2514eeb420faf51fbbd92aac4e5faf8da81edce2653340f",
        "probmatrix.csv": "3f48abadfeb6d59bb3888ca46edeec4087679fab7d05385f0ca6b1ce0cc4722c",
        "results.csv": "df5e36eef4096969cd27a42ba3e5057f9b4b4742e6c3195fc59f58e260776de3",
    },
    "loso": {
        "confusion.csv": "6e425eb35b78fc90c54a40352dc9f2143483ee18c7bbec2634fd30d8d99db28f",
        "per_subject.csv": "00f6ea9f3abffd28b957f5386604707b8aac4bd572c3f79e0f9ff6bb5a66a6aa",
        "probmatrix.csv": "318f3e16b57d2cd36cc5630683cfae5fbdacf6274a6923466d373efeb9bc09d0",
        "results.csv": "e7d829519607f5841b0f21dee9138b10c7f2e76802523115408a411d9baeee9a",
    },
}


@pytest.fixture(scope="module")
def noisy_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("noisy_data")
    write_canonical_dataset(make_directional_dataset(
        classes=4, subjects=6, instances=4, raw_frames=30, joints=5, seed=1, noise=0.3,
        direction_jitter=2.0), d)
    return d


@pytest.fixture(scope="module")
def noisy_model(tmp_path_factory, noisy_dir) -> Path:
    path = tmp_path_factory.mktemp("noisy_model") / "model.json"
    assert cli.main(["train", str(noisy_dir), *PINNED_ARGS, "-o", str(path)]) == 0
    return path


class TestPinnedScores:
    """Pins whose corpus no run classifies perfectly, so that they see the score
    arithmetic, not just the argmax: `dam classify`'s printed scores, the
    model file's decoded codebook and probabilities, and `dam evaluate`'s
    CSVs. The codebook is bound to numpy's AVX-512 exp, as `TestPinnedDigests`
    in test_som.py is, and the scores to the OpenBLAS core (ROADMAP item 2)."""

    def test_classify_output(self, capsys, noisy_dir, noisy_model):
        code, out, _ = run(capsys, "classify", "--model", str(noisy_model), str(noisy_dir))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "37de7aeed19c12352ae2e69605b3e354fe6da12e9db5d844e5a5d55fea929dc8")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert any(max(map(float, row[2:])) < 0.5 for row in rows)

    def test_loaded_model_bytes(self, noisy_model):
        model = load_model(noisy_model)
        assert hashlib.sha256(model.grid.codebook.tobytes()).hexdigest() == (
            "2b72f837dcc9f1e8fab1767807dc1bc14b661845f70427ed7fad159615415983")
        assert hashlib.sha256(model.cluster_class_probs.tobytes()).hexdigest() == (
            "b0ab82f05212011e6b5dd50d8f8125f7a83b91dcb1bc830cd9083198d53bc8b6")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("protocol", sorted(NOISY_EVALUATE_DIGESTS))
    def test_evaluate_csvs(self, capsys, tmp_path, noisy_dir, protocol, jobs):
        out = tmp_path / "out"
        code, _, _ = run(capsys, "evaluate", str(noisy_dir), *PINNED_ARGS, "--runs", "3",
                         "--protocol", protocol, "--jobs", jobs, "--output-dir", str(out))
        assert code == 0
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in tree_bytes(out).items()} == NOISY_EVALUATE_DIGESTS[protocol]
        # No run (no LOSO fold) scores 1, so the digests pin scores and not
        # only predictions.
        accuracies = [float(line.split(",")[-1])
                      for line in (out / "results.csv").read_text().splitlines()[1:]]
        assert len(accuracies) == {"cross-subject": 3, "loso": 6}[protocol]
        assert max(accuracies) < 1


# Each command that reads a dataset directory, as run by the streaming tests;
# "evaluate-<mode>-<jobs>" runs `dam evaluate --exclusions <mode> --jobs <jobs>`.
STREAMING_COMMANDS = ["train", "sweep", *(f"evaluate-{mode}-{jobs}" for mode in
                                         ("apply", "ignore", "both") for jobs in (1, 2))]


def _streaming_argv(command: str, data: Path, out: Path) -> list:
    out.mkdir()
    if command == "train":
        return ["train", str(data), *FAST, "--seed", "1", "-o", str(out / "model.json")]
    if command == "sweep":
        return ["sweep", str(data), "--frames", "10", "--epochs", "2", "--windows", "1,2",
                "--grids", "2x2", "--runs", "1", "--seed", "1", "--jobs", "1",
                "-o", str(out / "sweep.csv")]
    _, mode, jobs = command.split("-")
    return ["evaluate", str(data), *FAST, "--runs", "1", "--seed", "1", "--jobs", jobs,
            "--exclusions", mode, "--output-dir", str(out)]


# Finite coordinates near 1e103, which preprocessing refuses.
REFUSED_FRAMES = np.cumsum(np.random.default_rng(0).normal(size=(30, 3, 3)), axis=0) * 1e103


def _bad_actions(tmp_path: Path, bad: dict) -> Path:
    """The `canon_dir` corpus, with the action of each id in `bad` given the
    frames it maps to; returns the directory."""
    data = tmp_path / "data"
    for a in make_directional_dataset(classes=3, subjects=4, instances=2, raw_frames=20,
                                      joints=3, seed=11):
        # One Dataset each, so that joint counts may differ.
        action = Action(a.id, a.subject, a.label, bad.get(a.id, a.frames))
        write_canonical_dataset(Dataset([action]), data)
    return data


class TestStreamedActions:
    """`dam train`, `evaluate` and `sweep` read each action into the window
    table as it is parsed, so the corpus's frames are never all held."""

    @pytest.mark.parametrize("fmt", ["canonical", "action3d"])
    @pytest.mark.parametrize("command", STREAMING_COMMANDS)
    def test_at_most_one_action_is_alive(self, capsys, tmp_path, canon_dir, action3d_dir,
                                         monkeypatch, fmt, command):
        data = tmp_path / "data"
        shutil.copytree(canon_dir if fmt == "canonical" else action3d_dir, data)
        victim = sorted(p.stem for p in data.glob("*.txt"))[0]
        (data / "exclude.txt").write_text(f"{victim}\n")
        alive, most = [0], [0]
        make = dataset_module.Action

        def gone():
            alive[0] -= 1

        def tracked(*args, **kwargs):  # every Action a loader makes
            action = make(*args, **kwargs)
            weakref.finalize(action, gone)
            alive[0] += 1
            most[0] = max(most[0], alive[0])
            return action

        monkeypatch.setattr(dataset_module, "Action", tracked)
        argv = _streaming_argv(command, data, tmp_path / "out")
        code, _, stderr = run(capsys, *argv, "--format", fmt)
        assert (code, stderr) == (0, "")
        # The action whose rows are being written, and the next one parsed.
        assert 0 < most[0] <= 2
        assert alive[0] == 0

    @pytest.mark.parametrize("command", ["train", "evaluate-apply-1", "sweep"])
    def test_a_preprocessing_error_names_its_file(self, capsys, tmp_path, command):
        with np.errstate(all="ignore"), pytest.raises(ValueError) as refused:
            preprocess_action(REFUSED_FRAMES, PreprocessParams(frames=10, window=2))
        data = _bad_actions(tmp_path, {"c1_s02_i00": REFUSED_FRAMES})
        with np.errstate(all="ignore"):  # the numpy chain overflows on its way to the error
            code, stdout, stderr = run(capsys, *_streaming_argv(command, data, tmp_path / "out"))
        assert (code, stdout) == (1, "")
        assert stderr == f"error: c1_s02_i00.txt: {refused.value}\n"

    @pytest.mark.parametrize("command", ["train", "evaluate-apply-1", "sweep"])
    def test_the_first_bad_file_is_reported(self, capsys, tmp_path, command):
        # A later file that does not parse is not reached.
        data = _bad_actions(tmp_path, {"c0_s00_i01": REFUSED_FRAMES})
        (data / "c2_s03_i01.txt").write_text("not a header\n")
        with np.errstate(all="ignore"):
            code, _, stderr = run(capsys, *_streaming_argv(command, data, tmp_path / "out"))
        assert code == 1
        assert stderr.startswith("error: c0_s00_i01.txt: ")

    @pytest.mark.parametrize("command", ["train", "evaluate-apply-1", "sweep"])
    def test_an_action_of_another_joint_count_is_refused_by_name(self, capsys, tmp_path,
                                                                 monkeypatch, command):
        frames = np.random.default_rng(1).normal(size=(20, 2, 3))
        data = _bad_actions(tmp_path, {"c1_s02_i00": frames})
        preprocessed = []
        monkeypatch.setattr(evaluation, "preprocess_action",
                            lambda action, params: preprocessed.append(action.id)
                            or preprocess_action(action, params))
        code, stdout, stderr = run(capsys, *_streaming_argv(command, data, tmp_path / "out"))
        assert (code, stdout) == (1, "")
        assert stderr == "error: c1_s02_i00.txt: 2 joints, the first action has 3\n"
        assert preprocessed and "c1_s02_i00" not in preprocessed


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        code, stdout, _ = run(capsys, "--help")
        assert code == 0
        assert "usage" in stdout

    def test_no_command_is_a_usage_error(self, capsys):
        code, _, stderr = run(capsys)
        assert code == 2
        assert stderr.startswith("error: ")
        assert stderr.count("\n") == 1

    def test_unknown_command_rejected(self, capsys):
        code, _, stderr = run(capsys, "frobnicate")
        assert code == 2
        assert stderr.startswith("error: ")

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 1.57 TiB"),
                                       MemoryError()], ids=["message", "bare"])
    def test_a_setting_too_large_for_memory_is_one_error_line(self, capsys, monkeypatch,
                                                             canon_dir, tmp_path, error):
        # `--frames 1000000000` passes the settings, and on a small machine its
        # first table allocation fails.
        def window_table(*args):
            raise error

        monkeypatch.setattr(cli, "window_table", window_table)
        code, _, stderr = run(capsys, "train", str(canon_dir), *FAST, "-o",
                              str(tmp_path / "m.json"))
        assert (code, stderr) == (1, f"error: {str(error) or 'MemoryError'}\n")


class _BlasProbe(ProcessPoolExecutor):
    """A pool whose `map` returns, per task, its worker's OpenBLAS thread count."""

    def map(self, fn, tasks):
        return [self.submit(_native.blas_threads).result() for _ in tasks]


def _worker_threads() -> int:
    """This process's thread count after a product large enough for OpenBLAS to thread."""
    a = np.ones((256, 256))
    a @ a
    return len(os.listdir("/proc/self/task"))


class _ForkedThreadProbe(ProcessPoolExecutor):
    """A forked pool whose `map` returns, per task, its worker's thread count."""

    def __init__(self, workers, **kwargs):
        super().__init__(workers, mp_context=multiprocessing.get_context("fork"), **kwargs)

    def map(self, fn, tasks):
        return [self.submit(_worker_threads).result() for _ in tasks]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or _native.blas_threads() is None,
                    reason="needs Linux's /proc and OpenBLAS's thread calls")
@pytest.mark.skipif(os.cpu_count() == 1 or "1" in map(os.environ.get, (
                        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")),
                    reason="OpenBLAS was loaded with one thread")
def test_a_worker_forked_from_a_one_thread_parent_runs_on_one_thread(monkeypatch):
    # Setting OpenBLAS's thread count in a forked worker rebuilds its pool,
    # whose new helper thread spins beside the worker's first task; a
    # worker that inherits the count it needs sets nothing.
    dataset = make_directional_dataset(classes=2, subjects=4, instances=1, raw_frames=12,
                                       joints=2, seed=0)
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _ForkedThreadProbe)
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
    cfg = ExperimentConfig(PreprocessParams(frames=10, window=2), 2, 2, runs=2)
    tasks = evaluation._tasks(evaluation.CROSS_SUBJECT, dataset, cfg, dataset)
    caller = _native.blas_threads(1)
    try:
        assert list(evaluation._run_tasks(dataset, tasks, jobs=2)) == [1, 1]
        assert _native.blas_threads() == 1
    finally:
        _native.blas_threads(caller)


@pytest.mark.skipif(_native.blas_threads() is None,
                    reason="numpy's BLAS exports no OpenBLAS thread calls")
@pytest.mark.parametrize("case", ["main returns", "main exits 1", "main raises",
                                  "jobs=2 worker"])
def test_dam_sets_its_own_blas_threads(capsys, monkeypatch, tmp_path, case):
    # `main` runs on one thread and gives the caller back its count however
    # it ends; a pool of 2 workers on 6 usable CPUs runs each on 3.
    dataset = make_directional_dataset(classes=2, subjects=4, instances=1, raw_frames=12,
                                       joints=2, seed=0)
    seen = []

    def load(directory, apply_exclusions):
        seen.append(_native.blas_threads())
        if case != "main returns":
            raise (ValueError if case == "main exits 1" else RuntimeError)("unreadable")
        return len(dataset), ((a.id, a) for a in dataset)

    caller = _native.blas_threads(2)
    try:
        if case == "jobs=2 worker":
            monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _BlasProbe)
            monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 6)
            cfg = ExperimentConfig(PreprocessParams(frames=10, window=2), 2, 2, runs=2)
            tasks = evaluation._tasks(evaluation.CROSS_SUBJECT, dataset, cfg, dataset)
            assert list(evaluation._run_tasks(dataset, tasks, jobs=2)) == [3, 3]
        else:
            monkeypatch.setattr(cli, "_canonical_actions", load)
            argv = ["convert", str(tmp_path / "in"), str(tmp_path / "out")]
            if case == "main raises":
                with pytest.raises(RuntimeError):
                    cli.main(argv)
            else:
                assert run(capsys, *argv)[0] == (0 if case == "main returns" else 1)
            assert seen == [1]
            assert _native.blas_threads() == 2
    finally:
        _native.blas_threads(caller)


def resolve(config: dict) -> dict:
    return cli.resolve_settings(argparse.Namespace(), config)


class TestShippedConfigs:
    def test_example_experiment_configs_validate(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        paths = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert paths
        for path in paths:
            settings = resolve(cli._load_config(path))
            if "windows" in settings:
                settings.update(window=settings["windows"][0], grid=settings["grids"][0])
            cfg = cli.experiment_config(settings)
            assert isinstance(cfg, ExperimentConfig), path
            assert cfg.preprocess.frames == settings["frames"]
            assert (cfg.rows, cfg.cols) == settings["grid"]

    def test_omitted_keys_take_the_library_defaults(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        cfg = cli.experiment_config(resolve({"frames": 25, "window": 3, "grid": [20, 30]}))
        assert cfg == ExperimentConfig(PreprocessParams(25, 3), 20, 30)

    def test_packaged_action_sets_load(self):
        import dam

        path = Path(dam.__file__).parent / "configs" / "action3d_sets.json"
        sets = cli.load_action_sets(path)
        assert set(sets) == {"AS1", "AS2", "AS3"}
        assert all(len(v) == 8 for v in sets.values())

    def test_packaged_msrc12_layout_loads(self):
        import dam
        from dam.dataset import Msrc12Layout

        path = Path(dam.__file__).parent / "configs" / "msrc12_layout.json"
        layout = cli._load_layout(path)
        assert layout == Msrc12Layout()


# What a `dam` command may give each setting, as a flag and in a config file:
# (values accepted on their own, values refused on their own). A setting
# absent from the flag table is given in the config file only.
_INF, _NAN = float("inf"), float("nan")
_FLAG_VALUES = {
    "frames": (["4", "12"], ["1", "0", "-3", "2.5", "x", ""]),
    "window": (["1", "3"], ["0", "-1", "1.5"]),
    "grid": (["2x2", "3X2", "1x3"], ["2", "0x2", "2x", "axb", "-1x2", "2x2x2"]),
    "epochs": (["1", "2"], ["0", "-1", "1.5"]),
    "seed": (["0", "7", str(2**64)], ["-1", "1.5"]),
    "runs": (["1", "2"], ["0", "-2"]),
    "jobs": (["1"], ["0", "-1"]),
    "protocol": (["loso", "cross-subject", "LOSO"], ["xyz", ""]),
    "windows": (["1,2", "3"], ["", "1,,2", "0", "1,1", "a", "1,0", "2,40"]),
    "grids": (["2x2,1x3", "3x3"], ["", "2x2,2x2", "0x1", "2", "2x2,0x1"]),
    "action_sets": ([{"a": [0, 1]}, {"a": [0, 1], "b": [1, 2]}],
                    [{}, {"a": []}, {"a": [True]}, [0, 1], "not JSON"]),
}
_CONFIG_VALUES = {
    "frames": ([4, 12], [1, 0, 2.5, "7", True, None]),
    "window": ([1, 3], [0, 1.5, "2", False]),
    "grid": (["2x2", [3, 2]], ["2", [2], [2.5, 2], [0, 2], [True, 2], {}]),
    "epochs": ([1, 2], [0, 1.5, "1"]),
    "seed": ([0, 7, 2**64], [-1, 1.5, "3"]),
    "runs": ([1, 2], [0, 1.5]),
    "jobs": ([1], [0, 1.5, "1"]),
    "protocol": (["loso", "cross_subject_half"], ["x", 3]),
    "learning_rate": ([[0.5, 0.01], [0.1, 0.1], [1, 1e-300]],
                      [[0.5], [-1, 0.1], [0.5, "a"], [_INF, 0.1], [_NAN, 0.1], 0.5, [0, 0.1]]),
    "som_radius": ([[None, 1.0], [2.0, 0.5], [1e150, 1.06e-154]],
                   [[0, 1], [1.0], [None, 0], [1e200, 1.06e-154], [_NAN, 1]]),
    "smoothing_sigma": ([0, 1.5, 1e-150], [-1, "1", _INF, _NAN, 10**400, 1e-300]),
    "smoothing_radius": ([0, 3], [-1, 1.5]),
    "norm_epsilon": ([1e-9, 1.0], [0, -1, _NAN, _INF]),
    "windows": ([[1, 2], "1,2"], [[], [0], [1, 1], [1.5], "1,,2", [1, 0], [2, 40]]),
    "grids": ([["2x2", [1, 3]]], [[], ["2x2", [2, 2]], [[0, 1]], ["2x2", [1, 0]]]),
    "action_sets": ([{"a": [0, 1]}], [{}, {"a": []}, {"a": [0.5]}, [0, 1]]),
}
# The settings each command must be given, and the others it reads.
_COMMAND_KEYS = {
    "train": (("frames", "window", "grid"), ("epochs", "seed")),
    "evaluate": (("frames", "window", "grid"), ("epochs", "seed", "runs", "jobs", "protocol")),
    "sweep": (("frames", "windows", "grids"), ("epochs", "seed", "runs", "jobs",
                                                "action_sets")),
}
_CONFIG_ONLY = ("learning_rate", "som_radius", "smoothing_sigma", "smoothing_radius",
                "norm_epsilon")


def _dam(command: str, data: Path, drawn: dict) -> tuple:
    """(exit code, stderr lines, logged warnings) of `dam command data` given
    each (where, value) of `drawn` as a flag or a config entry; a Python
    warning raises."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        argv, config = [command, str(data)], {}
        for key, (where, value) in drawn.items():
            if where == "config":
                config[key] = value
            elif key == "action_sets":
                path = scratch / "sets.json"
                path.write_text(value if isinstance(value, str) else json.dumps(value))
                argv += ["--action-sets", str(path)]
            else:
                argv += [f"--{key}", value]
        if config:
            (scratch / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(scratch / "config.json")]
        argv += {"train": ["-o", str(scratch / "m.json")],
                 "evaluate": ["--output-dir", str(scratch / "out")],
                 "sweep": ["-o", str(scratch / "sweep.csv")]}[command]
        err, records = io.StringIO(), []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logging.getLogger().addHandler(handler)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = cli.main(argv)
        finally:
            logging.getLogger().removeHandler(handler)
    return code, err.getvalue().splitlines(), [r.getMessage() for r in records]


def _names(keys) -> list:
    """The ways an error may name each setting: as a config key, a flag or words."""
    return [name for key in keys for name in (key, key.replace("_", "-"), key.replace("_", " "))]


def _refusals() -> list:
    """(command, setting, where, value) of each value refused on its own."""
    cases = []
    for command, (needed, optional) in _COMMAND_KEYS.items():
        for key in (*needed, *optional, *_CONFIG_ONLY):
            for where, table in (("flag", _FLAG_VALUES), ("config", _CONFIG_VALUES)):
                if key in table and not (where == "flag" and key in _CONFIG_ONLY):
                    cases += [(command, key, where, value) for value in table[key][1]]
    return cases


@st.composite
def _command_lines(draw):
    """(command, {setting: (where, value)}, refused settings): each setting the
    command must be given and some others, each a flag or a config entry; in
    about one command of three, one setting takes a refused value."""
    command = draw(st.sampled_from(sorted(_COMMAND_KEYS)))
    needed, optional = _COMMAND_KEYS[command]
    keys = [*needed, *draw(st.lists(st.sampled_from([*optional, *_CONFIG_ONLY]),
                                    unique=True, max_size=3))]
    wrong = draw(st.sampled_from(keys)) if draw(st.integers(0, 2)) == 0 else None
    drawn = {}
    for key in keys:
        flag = key in _FLAG_VALUES and key not in _CONFIG_ONLY and draw(st.booleans())
        good, refused = (_FLAG_VALUES if flag else _CONFIG_VALUES)[key]
        drawn[key] = ("flag" if flag else "config",
                      draw(st.sampled_from(refused if key == wrong else good)))
    return command, drawn, {wrong} - {None}


class TestDrawnSettings:
    """Every setting the command line and config files accept trains, fits and
    scores; anything else exits 2 with one `error:` line that names it."""

    @pytest.mark.parametrize("command, key, where, value", _refusals(), ids=repr)
    def test_each_refused_value_exits_2_naming_its_setting(self, canon_dir, monkeypatch,
                                                           command, key, where, value):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        needed = _COMMAND_KEYS[command][0]
        drawn = {k: ("config", _CONFIG_VALUES[k][0][0]) for k in needed}
        drawn[key] = (where, value)
        code, lines, _ = _dam(command, canon_dir, drawn)
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
        assert any(name in lines[0] for name in _names([key])), lines

    @settings(max_examples=90, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_command_lines())
    def test_refused_by_name_or_run_without_a_warning(self, canon_dir, monkeypatch, case):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        command, drawn, refused = case
        code, lines, logged = _dam(command, canon_dir, drawn)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert any(name in lines[0] for name in _names(drawn)), (drawn, lines)
        else:
            assert not refused, f"{refused} accepted: {drawn}"
            assert (code, lines, logged) == (0, [], []), drawn

    def test_a_sweep_grid_after_the_first_is_refused_as_a_setting(self, canon_dir):
        # Only the first window and grid were checked with the settings; a
        # later one failed once the sweep ran, exiting 1.
        code, lines, _ = _dam("sweep", canon_dir, {
            "frames": ("config", 4), "windows": ("config", [1]), "grids": ("flag", "2x2,0x1")})
        assert (code, lines) == (2, ["error: grids[1]: grid must be at least 1x1 in rows x "
                                     "cols, got 0x1"])

    def test_a_refused_som_radius_is_named(self, canon_dir):
        # SomTrainParams names its fields radius_start and radius_end, which
        # no config file holds.
        code, lines, _ = _dam("train", canon_dir, {
            "frames": ("config", 4), "window": ("config", 1), "grid": ("config", "2x2"),
            "som_radius": ("config", [0, 1])})
        assert (code, lines) == (2, ["error: som_radius: radius_start (0.0) must be finite "
                                     "and >= radius_end (1.0)"])
