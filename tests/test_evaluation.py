"""Tests for the experiment harness: single runs, protocols, sweeps, CSV output.

Aggregate statistics are recomputed from the per-run results by hand, so the
driver's arithmetic is checked against an independent path rather than
against itself.
"""

from __future__ import annotations

import hashlib
import logging
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from dam import _native, descriptor, evaluation, preprocess, som
from dam.classifier import _per_row, score_actions
from dam.dataset import Dataset, split_cross_subject
from dam.evaluation import (
    CROSS_SUBJECT,
    LOSO,
    ExperimentConfig,
    cross_validate,
    derive_seed,
    evaluate_loso,
    parameter_sweep,
    run_single,
    write_confusion_csv,
    write_per_subject_csv,
    write_prob_matrix_csv,
    write_results_csv,
    write_sweep_csv,
)
from dam.preprocess import PreprocessParams, preprocess_action
from dam.som import SomGrid, SomTrainParams, train_som
from dam.synthetic import make_directional_dataset, make_ordered_dataset


def small_config(window: int = 2, runs: int = 3, seed: int = 7) -> ExperimentConfig:
    return ExperimentConfig(
        preprocess=PreprocessParams(frames=10, window=window),
        rows=3,
        cols=3,
        som=SomTrainParams(epochs=4),
        runs=runs,
        seed=seed,
    )


@pytest.fixture(scope="module")
def directional() -> Dataset:
    return make_directional_dataset(
        classes=3, subjects=4, instances=2, raw_frames=20, joints=3, seed=11
    )


class TestSyntheticGenerators:
    def test_directional_shape_and_counts(self, directional):
        assert len(directional) == 3 * 4 * 2
        assert directional.joint_count == 3
        assert directional.class_set == (0, 1, 2)
        assert directional.subject_set == (1, 2, 3, 4)
        for action in directional:
            assert action.frames.shape == (20, 3, 3)

    def test_directional_classes_move_along_distinct_axes(self, directional):
        # Class c walks along axis c; the dominant displacement coordinate
        # and its sign identify the class.
        for action in directional:
            span = action.frames[-1] - action.frames[0]
            mean_step = span.mean(axis=0)
            assert int(np.argmax(np.abs(mean_step))) == action.label % 3
            assert mean_step[action.label % 3] > 0

    def test_generators_are_deterministic(self):
        kwargs = dict(classes=2, subjects=2, instances=2, raw_frames=12, joints=2, seed=5)
        a = make_directional_dataset(**kwargs)
        b = make_directional_dataset(**kwargs)
        for x, y in zip(a, b):
            assert x.id == y.id
            assert_array_equal(x.frames, y.frames)
        c = make_directional_dataset(**{**kwargs, "seed": 6})
        assert any(not np.array_equal(x.frames, y.frames) for x, y in zip(a, c))

    def test_ordered_dataset_shares_total_displacement(self):
        # Classes permute the same movement segments, so with zero noise the
        # per-joint net displacement direction is identical across classes.
        ds = make_ordered_dataset(
            classes=2, subjects=2, instances=1, raw_frames=24, joints=2, seed=3, noise=0.0
        )
        spans = {}
        for action in ds:
            span = action.frames[-1] - action.frames[0]
            spans.setdefault(action.label, []).append(span / np.linalg.norm(span))
        mean0 = np.mean(spans[0], axis=0)
        mean1 = np.mean(spans[1], axis=0)
        assert_allclose(mean0, mean1, atol=0.2)

    def test_ordered_dataset_counts(self):
        ds = make_ordered_dataset(classes=3, subjects=2, instances=2, raw_frames=18, joints=2)
        assert len(ds) == 12
        assert ds.class_set == (0, 1, 2)


class TestDeriveSeed:
    def test_deterministic_and_nonnegative(self):
        assert derive_seed(42, 3, 1) == derive_seed(42, 3, 1)
        assert derive_seed(42, 3, 1) >= 0

    def test_distinct_across_key_coordinates(self):
        seeds = {derive_seed(0, r, k) for r in range(20) for k in range(2)}
        assert len(seeds) == 40


class TestRunSingle:
    def test_separable_classes_reach_full_accuracy(self, directional):
        cfg = small_config()
        train, test = split_cross_subject(directional, seed=0)
        result = run_single(train, test, cfg, som_seed=1)
        assert result.accuracy == 1.0
        assert_array_equal(result.confusion, np.diag([4, 4, 4]))
        assert result.test_count == len(test)
        assert result.correct_count == len(test)

    def test_confusion_rows_match_class_counts(self, directional):
        cfg = small_config()
        train, test = split_cross_subject(directional, seed=3)
        result = run_single(train, test, cfg, som_seed=5)
        counts = {c: 0 for c in result.classes}
        for action in test:
            counts[action.label] += 1
        assert_array_equal(result.confusion.sum(axis=1), [counts[c] for c in result.classes])

    def test_prob_matrix_rows_are_distributions(self, directional):
        cfg = small_config()
        train, test = split_cross_subject(directional, seed=1)
        result = run_single(train, test, cfg, som_seed=2)
        assert result.prob_matrix.shape == (3, 3)
        assert_allclose(result.prob_matrix.sum(axis=1), np.ones(3), atol=1e-9)
        assert np.all(result.prob_matrix >= 0)

    def test_subject_accuracy_covers_test_subjects(self, directional):
        cfg = small_config()
        train, test = split_cross_subject(directional, seed=0)
        result = run_single(train, test, cfg, som_seed=1)
        assert tuple(sorted(result.subject_accuracy)) == test.subject_set
        assert all(v == 1.0 for v in result.subject_accuracy.values())

    def test_rejects_shared_subjects(self, directional):
        cfg = small_config()
        actions = list(directional)
        half = Dataset(actions[: len(actions) // 2])
        with pytest.raises(ValueError, match="share subjects"):
            run_single(half, half, cfg)

    def test_rejects_single_class_training_half(self, directional):
        cfg = small_config()
        train = Dataset([a for a in directional if a.label == 0 and a.subject <= 2])
        test = Dataset([a for a in directional if a.subject > 2])
        with pytest.raises(ValueError, match="class"):
            run_single(train, test, cfg)

    def test_rejects_mismatched_joint_counts(self, directional):
        cfg = small_config()
        other = make_directional_dataset(
            classes=3, subjects=2, instances=1, raw_frames=20, joints=5, seed=2
        )
        train, _ = split_cross_subject(directional, seed=0)
        test = Dataset([a for a in other if a.subject == 2])
        with pytest.raises(ValueError, match="joint count"):
            run_single(train, test, cfg)

    def test_class_seen_only_in_test_gets_zero_scores(self, directional):
        cfg = small_config()
        train = Dataset([a for a in directional if a.subject <= 2 and a.label != 2])
        test = Dataset([a for a in directional if a.subject > 2])
        result = run_single(train, test, cfg, som_seed=4)
        assert result.classes == (0, 1, 2)
        # Nothing is ever assigned to the unseen class, and its mean score is 0.
        assert result.confusion[:, 2].sum() == 0
        assert_allclose(result.prob_matrix[:, 2], 0.0)

    def test_codebook_stays_inside_training_data_envelope(self, directional):
        # The codebook is initialized from training samples and every update
        # is a convex combination with a training sample, so each coordinate
        # must stay inside the training data's componentwise range. Holding
        # out a subject whose data lies far away must not pull any unit
        # toward it.
        cfg = small_config()
        train = Dataset([a for a in directional if a.subject != 4])
        test = Dataset([a for a in directional if a.subject == 4])
        train_wdfs = np.vstack([preprocess_action(a, cfg.preprocess) for a in train])
        result = run_single(train, test, cfg, som_seed=9)
        code = result.model.grid.codebook
        eps = 1e-12
        assert np.all(code >= train_wdfs.min(axis=0) - eps)
        assert np.all(code <= train_wdfs.max(axis=0) + eps)

    def test_precomputed_wdfs_give_identical_result(self, directional):
        cfg = small_config()
        train, test = split_cross_subject(directional, seed=0)
        wdfs = {a.id: preprocess_action(a, cfg.preprocess) for a in directional}
        given = _run_on_table(train, test, cfg, wdfs, som_seed=1)
        computed = run_single(train, test, cfg, som_seed=1)
        assert given.accuracy == computed.accuracy
        assert_array_equal(given.confusion, computed.confusion)
        assert_array_equal(given.prob_matrix, computed.prob_matrix)
        assert_array_equal(given.model.grid.codebook, computed.model.grid.codebook)

    def test_zero_evidence_is_logged_once_and_predicts_the_first_class(
        self, directional, monkeypatch, caplog
    ):
        cfg = small_config()
        train, test = split_cross_subject(directional, seed=0)
        real_fit = evaluation.table_class_probabilities

        def fit_without_evidence(*args, **kwargs):
            classes, probs = real_fit(*args, **kwargs)
            return classes, np.zeros_like(probs)

        monkeypatch.setattr(evaluation, "table_class_probabilities", fit_without_evidence)
        with caplog.at_level("WARNING", logger="dam.evaluation"):
            result = run_single(train, test, cfg, som_seed=1, run_index=4)
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert f"run 4: {len(test)} of {len(test)} test actions had zero evidence" in (
            record.getMessage()
        )
        assert result.confusion[:, 0].sum() == len(test)
        assert_array_equal(result.prob_matrix, np.zeros((3, 3)))

    def test_no_warning_when_every_action_has_evidence(self, directional, caplog):
        train, test = split_cross_subject(directional, seed=0)
        with caplog.at_level("WARNING", logger="dam.evaluation"):
            run_single(train, test, small_config(), som_seed=1)
        assert caplog.records == []

    def test_an_action_in_both_halves_is_refused(self, directional):
        # One window table holds both halves, so an action id may occur once.
        train, test = split_cross_subject(directional, seed=0)
        test = Dataset([replace(test.actions[0], id=train.actions[0].id), *test.actions[1:]])
        with pytest.raises(ValueError, match=f"^duplicate action id {train.actions[0].id!r}$"):
            run_single(train, test, small_config())


class TestPinnedRunBytes:
    # Bound to numpy's AVX-512 exp, as `TestPinnedDigests` in test_som.py is
    # (see ROADMAP item 2), so the CI step that disables it leaves them out.
    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_run_single_bytes_are_pinned(self, split):
        # The digests were taken when each half had a window table of its
        # own; one table for both halves gives the same bytes.
        ds = make_directional_dataset(classes=4, subjects=6, instances=4, raw_frames=30,
                                      joints=5, seed=3)
        cfg = ExperimentConfig(PreprocessParams(frames=12, window=3), 5, 5,
                               som=SomTrainParams(epochs=2))
        train, test = split_cross_subject(ds, split)
        result = run_single(train, test, cfg, som_seed=split + 10, run_index=split)
        digest = hashlib.sha256()
        for array in (result.confusion, result.prob_matrix, result.model.grid.codebook,
                      result.model.cluster_class_probs):
            digest.update(array.tobytes())
        assert digest.hexdigest() == RUN_SINGLE_DIGESTS[split]


RUN_SINGLE_DIGESTS = [
    "abe2afaa2c87d60b87524bea229c866ab911e8d2ccb95dc2781158c644eb4060",
    "5d22392de2c8843eea6d7db0857529dcf232433f569734fe7c590695d0fccfcd",
    "ab6b592b6956acd155746234466bc832613511e916cd95368c94077a241d2ca8",
]


class TestPinnedRunScores:
    # A corpus no split classifies perfectly, so that no prob matrix row is
    # one-hot and the digest sees the score arithmetic, not just the argmax.
    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_run_single_prob_matrix_is_pinned(self, split):
        ds = make_directional_dataset(classes=4, subjects=6, instances=4, raw_frames=30,
                                      joints=5, seed=1, noise=0.3, direction_jitter=2.0)
        cfg = ExperimentConfig(PreprocessParams(frames=12, window=3), 5, 5,
                               som=SomTrainParams(epochs=2))
        train, test = split_cross_subject(ds, split)
        result = run_single(train, test, cfg, som_seed=split + 10, run_index=split)
        assert result.accuracy < 1
        assert np.all(result.prob_matrix.max(axis=1) < 1)
        assert (hashlib.sha256(result.prob_matrix.tobytes()).hexdigest()
                == NOISY_PROB_MATRIX_DIGESTS[split])


NOISY_PROB_MATRIX_DIGESTS = [
    "f6ad0dfc67894856326b0587cf32c421ea5ff1ef3d0ebe66046603d518200617",
    "3fe80ae11a48bf8541648c8d452cb9ba3615794e88b9102c5047df62afb422fb",
    "df25c609df0081ef9eedbc68da1beebf03f90fcda3b071dc04cef9f52df195b6",
]


@pytest.fixture(scope="module")
def paper_half():
    """The seed-0 paper-scale corpus (6 classes, 10 subjects, 10 instances, 20
    joints) split as cross-subject run 0 of seed 0 scores it, with its WDFs."""
    dataset = make_directional_dataset(
        classes=6, subjects=10, instances=10, raw_frames=45, joints=20, seed=0
    )
    cfg = ExperimentConfig(preprocess=PreprocessParams(frames=25, window=3), rows=25, cols=25,
                           som=SomTrainParams(epochs=1), runs=1, seed=0)
    train, test = split_cross_subject(dataset, derive_seed(0, 0, 0))
    wdfs = {a.id: preprocess_action(a, cfg.preprocess) for a in dataset}
    return train, test, cfg, wdfs


def _run_on_table(train, test, cfg, wdfs, som_seed):
    """The run of `run_single`, on a window table stacked from the precomputed
    `wdfs` (action id -> WDFs) of both halves, train's first."""
    records = Dataset([*train, *test])
    state = records, {cfg.preprocess: np.vstack([wdfs[a.id] for a in records])}
    halves = range(len(train)), range(len(train), len(records))
    return evaluation._run((cfg, *halves, som_seed, 0), state)


def _scored_per_action(model, test, wdfs):
    """(confusion, prob_matrix, subject accuracy, zero-evidence count) with one
    winner search and one posterior per test action."""
    index = {c: i for i, c in enumerate(model.classes)}
    n = len(model.classes)
    confusion = np.zeros((n, n), dtype=np.int64)
    prob_sums = np.zeros((n, n))
    hits, zero_evidence = {}, 0
    for action in test:
        posterior = score_actions(model, [wdfs[action.id]])[0]
        zero_evidence += posterior.zero_evidence
        t, p = index[action.label], index[posterior.predicted]
        confusion[t, p] += 1
        prob_sums[t] += posterior.normalized()
        hits.setdefault(action.subject, []).append(t == p)
    subject_accuracy = {s: sum(h) / len(h) for s, h in sorted(hits.items())}
    return confusion, _per_row(prob_sums, confusion.sum(axis=1)), subject_accuracy, zero_evidence


class TestOneSearchPerTestHalf:
    @pytest.mark.parametrize("duplicated", [False, True], ids=["trained", "duplicated_units"])
    def test_bulk_scores_equal_the_per_action_loop(self, paper_half, duplicated, monkeypatch,
                                                    caplog):
        train, test, cfg, wdfs = paper_half
        if duplicated:
            # Units 1, 6, 11, ... copy the unit before them, so each window
            # that one of those pairs wins is an exact tie, rescored directly.
            real_train = evaluation.train_som

            def train_duplicated(*args, **kwargs):
                grid = real_train(*args, **kwargs)
                codebook = grid.codebook.copy()
                codebook[1::5] = codebook[:-1:5]
                return SomGrid(rows=grid.rows, cols=grid.cols, codebook=codebook)

            monkeypatch.setattr(evaluation, "train_som", train_duplicated)
        searches, rescored = [], []
        monkeypatch.setattr(descriptor, "bmu_batch",
                            lambda g, xs, subset=None, search=descriptor.bmu_batch:
                            searches.append(len(xs) if subset is None else len(subset))
                            or search(g, xs, subset=subset))
        monkeypatch.setattr(som, "_direct_winner",
                            lambda c, x, winner=som._direct_winner:
                            rescored.append(1) or winner(c, x))
        with caplog.at_level("WARNING", logger="dam.evaluation"):
            result = _run_on_table(train, test, cfg, wdfs, som_seed=derive_seed(0, 0, 1))
        sizes = [sum(len(wdfs[a.id]) for a in half) for half in (train, test)]
        assert searches == sizes
        assert bool(rescored) == duplicated
        monkeypatch.undo()

        confusion, prob_matrix, subject_accuracy, zero_evidence = _scored_per_action(
            result.model, test, wdfs)
        assert result.confusion.tobytes() == confusion.tobytes()
        assert result.prob_matrix.tobytes() == prob_matrix.tobytes()
        assert result.subject_accuracy == subject_accuracy
        assert result.accuracy == float(np.trace(confusion) / confusion.sum())
        logged = [r.getMessage() for r in caplog.records]
        assert len(logged) == bool(zero_evidence)
        if zero_evidence:
            assert f": {zero_evidence} of {len(test)} test actions" in logged[0]


class TestCrossValidate:
    def test_aggregate_matches_hand_recomputation(self, directional):
        cfg = small_config(runs=3, seed=21)
        agg = cross_validate(directional, cfg)
        assert agg.protocol == CROSS_SUBJECT
        assert len(agg.run_results) == 3
        accs = np.array([r.accuracy for r in agg.run_results])
        assert_allclose(agg.mean_accuracy, accs.mean(), rtol=0, atol=0)
        assert_allclose(agg.std_accuracy, accs.std(), rtol=0, atol=0)
        assert_allclose(
            agg.mean_confusion,
            np.mean([r.confusion for r in agg.run_results], axis=0),
        )
        assert_allclose(
            agg.mean_prob_matrix,
            np.mean([r.prob_matrix for r in agg.run_results], axis=0),
        )

    def test_subject_accuracy_averages_only_runs_where_subject_held_out(self, directional):
        cfg = small_config(runs=4, seed=2)
        agg = cross_validate(directional, cfg)
        expected: dict = {}
        for r in agg.run_results:
            for s, a in r.subject_accuracy.items():
                expected.setdefault(s, []).append(a)
        assert set(agg.subject_accuracy) == set(expected)
        for s, values in expected.items():
            assert_allclose(agg.subject_accuracy[s], np.mean(values))

    def test_runs_get_distinct_derived_seeds_and_splits(self, directional):
        cfg = small_config(runs=4, seed=0)
        agg = cross_validate(directional, cfg)
        assert len({r.seed for r in agg.run_results}) == 4
        assert [r.run_index for r in agg.run_results] == [0, 1, 2, 3]
        assert len({r.train_subjects for r in agg.run_results}) > 1

    def test_identical_seeds_reproduce_bit_identical_results(self, directional):
        cfg = small_config(runs=2, seed=5)
        a = cross_validate(directional, cfg)
        b = cross_validate(directional, cfg)
        assert [r.accuracy for r in a.run_results] == [r.accuracy for r in b.run_results]
        assert_array_equal(a.mean_confusion, b.mean_confusion)
        assert_array_equal(a.mean_prob_matrix, b.mean_prob_matrix)
        assert_array_equal(
            a.run_results[0].model.grid.codebook, b.run_results[0].model.grid.codebook
        )

    def test_different_master_seed_changes_splits(self, directional):
        a = cross_validate(directional, small_config(runs=2, seed=5))
        b = cross_validate(directional, small_config(runs=2, seed=6))
        assert [r.train_subjects for r in a.run_results] != [
            r.train_subjects for r in b.run_results
        ]

    def test_single_run_has_zero_std(self, directional):
        agg = cross_validate(directional, small_config(runs=1))
        assert agg.std_accuracy == 0.0

    def test_accuracy_below_ceiling_is_pinned(self):
        # A noisy corpus the classifier gets mostly but not all right, so a
        # change that costs accuracy shows here; the path is byte-deterministic.
        ds = make_directional_dataset(
            classes=6, subjects=6, instances=5, raw_frames=40, joints=10, seed=1,
            noise=0.3, direction_jitter=2.0,
        )
        cfg = ExperimentConfig(
            preprocess=PreprocessParams(frames=25, window=3),
            rows=12,
            cols=12,
            som=SomTrainParams(epochs=5),
            runs=3,
            seed=0,
        )
        agg = cross_validate(ds, cfg)
        assert [(r.correct_count, r.test_count) for r in agg.run_results] == [
            (79, 90), (83, 90), (79, 90),
        ]

    def test_parallel_equals_serial(self, directional):
        cfg = small_config(runs=3, seed=13)
        serial = cross_validate(directional, cfg, jobs=1)
        parallel = cross_validate(directional, cfg, jobs=2)
        assert [r.accuracy for r in serial.run_results] == [
            r.accuracy for r in parallel.run_results
        ]
        assert_array_equal(serial.mean_confusion, parallel.mean_confusion)
        # A model unpickled from a worker is as immutable as one made here.
        for s, p in zip(serial.run_results, parallel.run_results, strict=True):
            assert p.model.grid.codebook.tobytes() == s.model.grid.codebook.tobytes()
            for grid in (s.model.grid, p.model.grid):
                assert not grid.codebook.flags.writeable and not grid.norms.flags.writeable
                assert_array_equal(grid.norms,
                                   np.einsum("ij,ij->i", grid.codebook, grid.codebook))


class TestLoso:
    def test_one_fold_per_subject(self, directional):
        cfg = small_config(runs=1, seed=3)
        agg = evaluate_loso(directional, cfg)
        assert agg.protocol == LOSO
        held_out = [r.test_subjects for r in agg.run_results]
        assert held_out == [(1,), (2,), (3,), (4,)]
        for r in agg.run_results:
            assert r.test_subjects[0] not in r.train_subjects

    def test_pooled_accuracy_recomputed_from_counts(self, directional):
        cfg = small_config(runs=1, seed=3)
        agg = evaluate_loso(directional, cfg)
        correct = sum(np.trace(r.confusion) for r in agg.run_results)
        total = sum(r.confusion.sum() for r in agg.run_results)
        assert_allclose(agg.mean_accuracy, correct / total, rtol=0, atol=0)
        assert set(agg.subject_accuracy) == {1, 2, 3, 4}

        # Folds of unequal size, where pooling and the mean of the fold
        # accuracies disagree: subject 1 keeps four of its six actions.
        ordered = make_ordered_dataset(classes=3, subjects=4, instances=2, raw_frames=20,
                                       joints=3, seed=11)
        dropped = [a.id for a in ordered if a.subject == 1][:2]
        agg = evaluate_loso(Dataset([a for a in ordered if a.id not in dropped]), cfg)
        sizes = [r.test_count for r in agg.run_results]
        assert sizes == [4, 6, 6, 6]
        assert agg.mean_accuracy == sum(r.correct_count for r in agg.run_results) / sum(sizes)
        assert agg.mean_accuracy != np.mean([r.accuracy for r in agg.run_results])

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, directional, monkeypatch, jobs):
        trained = []
        monkeypatch.setattr(evaluation, "train_som", lambda *a, **kw: trained.append(a))
        cfg = small_config()
        for protocol in (cross_validate, evaluate_loso):
            with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
                protocol(directional, cfg, jobs=jobs)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            parameter_sweep(directional, cfg, windows=[2], grids=[(3, 3)], jobs=jobs)
        assert trained == []

    def test_parallel_equals_serial(self, directional):
        cfg = small_config(runs=1, seed=9)
        serial = evaluate_loso(directional, cfg, jobs=1)
        parallel = evaluate_loso(directional, cfg, jobs=2)
        assert [r.accuracy for r in serial.run_results] == [
            r.accuracy for r in parallel.run_results
        ]
        for s, p in zip(serial.run_results, parallel.run_results):
            assert_array_equal(s.confusion, p.confusion)
        assert_array_equal(serial.mean_confusion, parallel.mean_confusion)
        assert_allclose(serial.mean_accuracy, parallel.mean_accuracy, rtol=0, atol=0)


class TestWindowTable:
    @pytest.mark.parametrize("count", [24, 40], ids=lambda c: f"count={c}")
    def test_rows_are_the_stacked_windows_whatever_the_count(self, directional, count):
        # 24 actions: a table allocated for more is cut.
        params = [PreprocessParams(frames=10, window=w) for w in (1, 2, 1)]
        records, tables = evaluation.window_table(
            (count, ((a.id, a) for a in directional)), params)
        assert [(r.id, r.subject, r.label, r.num_joints) for r in records] == [
            (a.id, a.subject, a.label, a.num_joints) for a in directional]
        assert not hasattr(records.actions[0], "frames")
        assert list(tables) == params[:2]
        for p, table in tables.items():
            assert table.flags.c_contiguous and table.flags.owndata
            assert_array_equal(table, np.vstack([preprocess_action(a, p) for a in directional]))


    @pytest.mark.parametrize("count", [0, 1, 3, 23], ids=lambda c: f"count={c}")
    def test_a_stream_longer_than_its_count_is_refused(self, directional, count):
        # The count sizes each table once, so it must bound the actions; the
        # first action beyond it is named.
        ident = directional.actions[count].id
        with pytest.raises(ValueError, match=(
                f"^{ident}: the stream yields more than the {count} actions it counted$")):
            evaluation.window_table((count, ((a.id, a) for a in directional)),
                                    [PreprocessParams(frames=10, window=1)])


class TestRunsReadTheWindowTable:
    def test_a_run_copies_no_half_of_the_windows(self):
        # tracemalloc sees numpy's buffers. Above the window table, a run
        # holds search and training blocks of at most `_CHUNK_BUDGET` floats
        # and int64 row indices, but no copy of a half's windows.
        dataset = make_directional_dataset(classes=4, subjects=8, instances=5, raw_frames=45,
                                           joints=20, seed=0)
        cfg = ExperimentConfig(preprocess=PreprocessParams(frames=25, window=3), rows=3,
                               cols=3, som=SomTrainParams(epochs=1), runs=1, seed=0)
        tracemalloc.start()
        try:
            windows = evaluation.window_table(evaluation._named(dataset), [cfg.preprocess])
            [agg] = evaluation._evaluate(windows, [(CROSS_SUBJECT, windows[0], cfg)], jobs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        action_bytes = cfg.preprocess.wdf_count * cfg.preprocess.feature_dim(20) * 8
        [run] = agg.run_results
        half_bytes = min(run.test_count, len(dataset) - run.test_count) * action_bytes
        # A half outweighs the blocks (about 1 MB here), so a copy of it shows.
        assert half_bytes > 2**21
        assert peak - len(dataset) * action_bytes < half_bytes


class TestPreprocessOnce:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("protocol", ["cross_validate", "evaluate_loso"])
    def test_each_action_is_preprocessed_once_in_the_caller(
        self, directional, monkeypatch, protocol, jobs
    ):
        import dam.evaluation

        calls = []

        def counted(action, params):
            calls.append(action.id)
            return preprocess_action(action, params)

        monkeypatch.setattr(dam.evaluation, "preprocess_action", counted)
        cfg = small_config(runs=2, seed=3)
        if protocol == "cross_validate":
            cross_validate(directional, cfg, jobs=jobs)
        else:
            evaluate_loso(directional, cfg, jobs=jobs)
        assert sorted(calls) == sorted(a.id for a in directional)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_preprocesses_each_action_once_per_window(
        self, directional, monkeypatch, jobs
    ):
        calls = []

        def counted(action, params):
            calls.append((action.id, params.window))
            return preprocess_action(action, params)

        monkeypatch.setattr(evaluation, "preprocess_action", counted)
        parameter_sweep(
            directional, small_config(runs=2, seed=3), windows=[1, 2],
            grids=[(2, 2), (3, 3)], action_sets={"even": [0, 2], "low": [0, 1]}, jobs=jobs,
        )
        assert sorted(calls) == sorted((a.id, w) for a in directional for w in (1, 2))


class TestOnePoolPerCall:
    @pytest.fixture
    def pools(self, monkeypatch) -> list:
        """The pools `dam.evaluation` starts, one entry each; `shut` is set on shutdown."""
        started = []

        class Counted(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                self.shut = False
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                self.shut = True

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", Counted)
        return started

    @pytest.mark.parametrize("jobs, expected", [(1, 0), (2, 1)])
    @pytest.mark.parametrize("protocol", ["cross_validate", "evaluate_loso", "parameter_sweep"])
    def test_one_pool_per_call(self, directional, pools, protocol, jobs, expected):
        cfg = small_config(runs=2, seed=3)
        if protocol == "parameter_sweep":
            parameter_sweep(directional, cfg, windows=[1, 2], grids=[(2, 2), (3, 3)],
                            action_sets={"even": [0, 2], "low": [0, 1]}, jobs=jobs)
        else:
            getattr(evaluation, protocol)(directional, cfg, jobs=jobs)
        assert len(pools) == expected
        assert all(pool.shut for pool in pools)  # before the call returned

    def test_sweep_logs_each_combination_as_it_finishes(self, directional, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="dam.evaluation")
        logged = []  # the sweep records logged before each train_som call

        def counted(*args, **kw):
            logged.append([r.getMessage() for r in caplog.records
                           if r.getMessage().startswith("sweep ")])
            return train_som(*args, **kw)

        monkeypatch.setattr(evaluation, "train_som", counted)
        parameter_sweep(directional, small_config(runs=2, seed=3), windows=[1, 2],
                        grids=[(2, 2), (3, 3)], action_sets={"even": [0, 2], "low": [0, 1]},
                        jobs=1)
        # 4 combinations x 2 subsets x 2 runs; the last combination trains last.
        assert len(logged) == 16
        assert len(logged[-4]) == 6
        assert logged[-4][0].startswith("sweep even W=1 2x2: ")


class TestParameterSweep:
    def test_row_count_without_subsets(self, directional):
        cfg = small_config(runs=2, seed=1)
        rows = parameter_sweep(directional, cfg, windows=[1, 2], grids=[(2, 2), (3, 3)])
        assert len(rows) == 4
        assert {r.subset for r in rows} == {"all"}
        assert {(r.window, r.rows, r.cols) for r in rows} == {
            (1, 2, 2), (1, 3, 3), (2, 2, 2), (2, 3, 3),
        }
        for r in rows:
            assert r.clusters == r.rows * r.cols
            assert r.runs == 2

    def test_subset_rows_and_mean_row_arithmetic(self, directional):
        cfg = small_config(runs=2, seed=4)
        sets = {"even": [0, 2], "low": [0, 1]}
        rows = parameter_sweep(directional, cfg, windows=[2], grids=[(3, 3)], action_sets=sets)
        assert [r.subset for r in rows] == ["even", "low", "mean"]
        mean_row = rows[-1]
        assert_allclose(
            mean_row.mean_accuracy, np.mean([rows[0].mean_accuracy, rows[1].mean_accuracy])
        )
        assert_allclose(
            mean_row.std_accuracy, np.mean([rows[0].std_accuracy, rows[1].std_accuracy])
        )

    def test_subset_row_matches_direct_cross_validation(self):
        # Every combination's rows come from runs of its own config on its
        # own subset, though all of them share one pool of workers. The
        # accuracies are below 1.0 and differ between rows, so a result given
        # to the wrong combination changes a row.
        from dam.dataset import filter_action_set

        ds = make_directional_dataset(
            classes=3, subjects=4, instances=2, raw_frames=20, joints=3, seed=11,
            noise=0.3, direction_jitter=2.0,
        )
        cfg = small_config(runs=3, seed=5)
        sets = {"even": [0, 2], "low": [0, 1]}
        rows = parameter_sweep(ds, cfg, windows=[1, 2], grids=[(2, 2), (3, 3)],
                               action_sets=sets, jobs=2)
        rows = [r for r in rows if r.subset != "mean"]
        assert [(r.window, r.rows, r.subset) for r in rows] == [
            (w, g, name) for w in (1, 2) for g in (2, 3) for name in ("even", "low")
        ]
        assert len({(r.mean_accuracy, r.std_accuracy) for r in rows}) == 7
        for r in rows:
            combo = replace(cfg, preprocess=replace(cfg.preprocess, window=r.window),
                            rows=r.rows, cols=r.cols)
            direct = cross_validate(filter_action_set(ds, sets[r.subset]), combo)
            assert (r.mean_accuracy, r.std_accuracy) == (direct.mean_accuracy,
                                                         direct.std_accuracy)

    @pytest.mark.filterwarnings("ignore:class 99 not present")
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(windows=[1, 2], grids=[(2, 2), (0, 3)]), "grid must be at least 1x1"),
            (dict(windows=[2], grids=[(2, 2), (2.7, 1.9)]), "rows must be an integer, got 2.7"),
            (dict(windows=[2], grids=[(2, 2)], action_sets={"a": [0, 1], "z": [99]}),
             "no actions remain"),
            (dict(windows=[2, 10], grids=[(2, 2)]), r"window must be in .*, got 10"),
            (dict(windows=[0], grids=[(2, 2)]), r"window must be in .*, got 0"),
        ],
        ids=["grid", "float-grid", "subset", "late-window", "window"],
    )
    def test_bad_grid_or_subset_rejected_before_training(
        self, directional, monkeypatch, kwargs, match
    ):
        trained = []

        def counted(*args, **kw):
            trained.append(args)
            return train_som(*args, **kw)

        monkeypatch.setattr(evaluation, "train_som", counted)
        with pytest.raises(ValueError, match=match):
            parameter_sweep(directional, small_config(runs=2), **kwargs)
        assert trained == []

    def test_subsets_of_absent_classes_are_refused_as_filtering_refuses_them(
        self, directional, monkeypatch
    ):
        # No action is of a listed class: filtering reports each absent class
        # and refuses the subset, before any action is preprocessed.
        preprocessed = []
        monkeypatch.setattr(evaluation, "preprocess_action",
                            lambda action, params: preprocessed.append(action))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError,
                               match=r"^no actions remain after filtering to classes \[7\]$"):
                parameter_sweep(directional, small_config(runs=1), windows=[2], grids=[(2, 2)],
                                action_sets={"typo": [7]})
        assert [str(w.message) for w in caught] == ["class 7 not present in dataset, ignoring"]
        assert preprocessed == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_csv_bytes_are_pinned(self, tmp_path, jobs):
        ds = make_directional_dataset(
            classes=3, subjects=4, instances=2, raw_frames=20, joints=3, seed=11,
            noise=0.3, direction_jitter=2.0,
        )
        rows = parameter_sweep(
            ds, small_config(runs=2, seed=4), windows=[1, 2], grids=[(2, 2), (3, 3)],
            action_sets={"even": [0, 2], "low": [0, 1]}, jobs=jobs,
        )
        # Accuracies below 1.0, so the digest pins values and not only layout.
        assert max(r.mean_accuracy for r in rows) < 1.0
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "243897ec6a404cc61548632d4b0591756c5b61a6f07407397e9c6b6e93e0ab98"
        )

    @pytest.mark.parametrize("kwargs, message", [
        (dict(windows=[1, 2, 1], grids=[(2, 2)]), "windows lists 1 twice"),
        (dict(windows=[2], grids=[(2, 2), (3, 3), [2, 2]]), r"grids lists \(2, 2\) twice"),
    ], ids=["windows", "grids"])
    def test_an_entry_listed_twice_is_refused_before_training(self, directional, monkeypatch,
                                                              kwargs, message):
        trained = []
        monkeypatch.setattr(evaluation, "train_som", lambda *a, **kw: trained.append(a))
        with pytest.raises(ValueError, match=f"^{message}$"):
            parameter_sweep(directional, small_config(runs=1), **kwargs)
        assert trained == []

    def test_empty_axes_rejected(self, directional):
        cfg = small_config(runs=1)
        with pytest.raises(ValueError, match="at least one"):
            parameter_sweep(directional, cfg, windows=[], grids=[(2, 2)])
        with pytest.raises(ValueError, match="at least one"):
            parameter_sweep(directional, cfg, windows=[2], grids=[])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(rows=0, cols=3), "grid"),
            (dict(rows=3, cols=0), "grid"),
            (dict(runs=0), "runs"),
            (dict(seed=-1), "seed"),
            (dict(rows=2.0), "rows"),
            (dict(cols=True), "cols"),
            (dict(runs=1.5), "runs"),
            (dict(seed=1.5), "seed"),
            (dict(seed="3"), "seed"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        base = dict(preprocess=PreprocessParams(frames=10, window=2), rows=3, cols=3)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{**base, **kwargs})

    def test_numpy_integers_are_stored_as_python_ints(self):
        # uint8 would wrap: 25 * 25 is 113 in eight bits.
        cfg = ExperimentConfig(preprocess=PreprocessParams(frames=10, window=2),
                               rows=np.uint8(25), cols=np.uint8(25), seed=np.int64(3))
        assert cfg.clusters == 625
        assert {type(cfg.rows), type(cfg.cols), type(cfg.seed)} == {int}

    def test_cluster_count(self):
        cfg = ExperimentConfig(
            preprocess=PreprocessParams(frames=10, window=2), rows=4, cols=5
        )
        assert cfg.clusters == 20


def _integers(low: int, high: int):
    """Integers in [low, high], as Python or (up to 2**63 - 1) numpy int64 values."""
    return st.integers(low, high) | st.integers(low, min(high, 2**63 - 1)).map(np.int64)


_INTEGER_FIELDS = ("frames", "window", "smoothing_radius", "rows", "cols", "runs", "seed")
_BAD_INTEGERS = [-1, 1.5, 2.0, True, np.float64(3.0), "2", None]
_BAD_FLOATS = [-1.0, np.nan, np.inf, -np.inf, True, "1.0", None]


@st.composite
def _settings_fields(draw):
    """(preprocess fields, experiment fields, the name of the bad one or None).

    Each field is drawn over its accepted range, bounded to keep the tiny
    corpus cheap: a grid of at most 2x2 units, so it never outnumbers the 4
    training actions' windows. One field may then take an out-of-range,
    mistyped or non-finite value.
    """
    frames = draw(_integers(2, 30))
    preprocess_fields = dict(
        frames=frames, window=draw(_integers(1, int(frames) - 1)),
        # Below ~1.05e-154 a sigma is refused as too small for the Gaussian.
        smoothing_sigma=draw(st.floats(0.0, 1e308) | st.sampled_from([0.0, 1e-160, 1.06e-154])),
        smoothing_radius=draw(_integers(0, 20)),
        norm_epsilon=draw(st.floats(0.0, 1e308, exclude_min=True)),
    )
    experiment_fields = dict(rows=draw(_integers(1, 2)), cols=draw(_integers(1, 2)),
                             runs=draw(_integers(1, 2**31)), seed=draw(_integers(0, 2**64)))
    bad = draw(st.none() | st.sampled_from(sorted([*preprocess_fields, *experiment_fields])))
    if bad is not None:
        fields = preprocess_fields if bad in preprocess_fields else experiment_fields
        fields[bad] = draw(st.sampled_from(
            _BAD_INTEGERS if bad in _INTEGER_FIELDS else _BAD_FLOATS))
    return preprocess_fields, experiment_fields, bad


@pytest.fixture(scope="module")
def tiny() -> Dataset:
    """2 classes x 2 subjects x 2 instances: each cross-subject half holds 4 actions."""
    return make_directional_dataset(classes=2, subjects=2, instances=2, raw_frames=12,
                                    joints=2, seed=5)


class TestSettingsAreRefusedOrRun:
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(drawn=_settings_fields())
    def test_refused_with_a_named_field_or_run_without_a_warning(self, tiny, drawn):
        preprocess_fields, experiment_fields, bad = drawn
        try:
            cfg = ExperimentConfig(PreprocessParams(**preprocess_fields),
                                   som=SomTrainParams(epochs=2), **experiment_fields)
        except ValueError as error:
            names = [*preprocess_fields, *experiment_fields]
            assert any(name in str(error) for name in names), error
            return
        assert bad is None, f"{bad}={experiment_fields.get(bad, preprocess_fields.get(bad))!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compiled = _native.load("_preprocess.c") is not None
            for action in tiny:
                positions = np.asarray(action.frames, dtype=np.float64)
                want = preprocess._numpy_windows(positions, cfg.preprocess)
                if compiled:
                    got = preprocess._compiled_windows(positions, cfg.preprocess)
                    assert got is not None and got.tobytes() == want.tobytes()
            # `runs` only sizes the protocol; one run shows the settings work.
            result = cross_validate(tiny, replace(cfg, runs=1))
        assert 0.0 <= result.mean_accuracy <= 1.0


@pytest.fixture(scope="module")
def agg(directional):
    return cross_validate(directional, small_config(runs=2, seed=8))


class TestCsvWriters:
    def test_results_csv(self, tmp_path, agg):
        path = tmp_path / "results.csv"
        write_results_csv(path, agg, small_config(runs=2, seed=8))
        lines = path.read_text().splitlines()
        assert lines[0] == "run,window,clusters,seed,accuracy"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2" and first[2] == "9"
        assert first[3] == str(agg.run_results[0].seed)
        assert float(first[4]) == pytest.approx(agg.run_results[0].accuracy, abs=1e-6)
        assert path.read_text().endswith("\n")

    def test_confusion_csv_round_trips_values(self, tmp_path, agg):
        path = tmp_path / "confusion.csv"
        write_confusion_csv(path, agg)
        lines = path.read_text().splitlines()
        assert lines[0] == "true_class,0,1,2"
        assert len(lines) == 4
        parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert_allclose(parsed, agg.mean_confusion, atol=1e-5)

    def test_prob_matrix_csv(self, tmp_path, agg):
        path = tmp_path / "probs.csv"
        write_prob_matrix_csv(path, agg)
        lines = path.read_text().splitlines()
        assert lines[0] == "true_class,0,1,2"
        parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert_allclose(parsed, agg.mean_prob_matrix, atol=1e-5)

    def test_per_subject_csv(self, tmp_path, agg):
        path = tmp_path / "subjects.csv"
        write_per_subject_csv(path, agg)
        lines = path.read_text().splitlines()
        assert lines[0] == "subject,accuracy"
        subjects = [line.split(",")[0] for line in lines[1:]]
        assert subjects == [str(s) for s in sorted(agg.subject_accuracy)]

    def test_sweep_csv(self, tmp_path):
        ds = make_directional_dataset(
            classes=3, subjects=4, instances=2, raw_frames=20, joints=3, seed=11
        )
        rows = parameter_sweep(ds, small_config(runs=1, seed=2), windows=[2], grids=[(2, 2)])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "subset,window,grid_rows,grid_cols,clusters,runs,mean_accuracy,std_accuracy"
        assert lines[1].startswith("all,2,2,2,4,1,")

    def test_writers_are_byte_deterministic(self, tmp_path, agg):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(a, agg, small_config(runs=2, seed=8))
        write_results_csv(b, agg, small_config(runs=2, seed=8))
        assert a.read_bytes() == b.read_bytes()
