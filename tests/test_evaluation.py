"""Tests for the experiment harness: single runs, protocols, sweeps, CSV output.

Aggregate statistics are recomputed from the per-run results by hand, so the
driver's arithmetic is checked against an independent path rather than
against itself.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dam import classifier, descriptor, evaluation, som
from dam.classifier import _per_row, class_posterior
from dam.dataset import Dataset, split_cross_subject
from dam.descriptor import compute_histogram
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
        given = run_single(train, test, cfg, som_seed=1, wdfs=wdfs)
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
        real_fit = evaluation.fit_model

        def fit_without_evidence(*args, **kwargs):
            model = real_fit(*args, **kwargs)
            model.cluster_class_probs = np.zeros_like(model.cluster_class_probs)
            return model

        monkeypatch.setattr(evaluation, "fit_model", fit_without_evidence)
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


def _scored_per_action(model, test, wdfs):
    """(confusion, prob_matrix, subject accuracy, zero-evidence count) with one
    winner search and one posterior per test action."""
    index = {c: i for i, c in enumerate(model.classes)}
    n = len(model.classes)
    confusion = np.zeros((n, n), dtype=np.int64)
    prob_sums = np.zeros((n, n))
    hits, zero_evidence = {}, 0
    for action in test:
        posterior = class_posterior(model, compute_histogram(model.grid, wdfs[action.id]))
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
        for module in (descriptor, classifier):
            monkeypatch.setattr(module, "bmu_batch",
                                lambda g, xs, search=module.bmu_batch:
                                searches.append(len(xs)) or search(g, xs))
        monkeypatch.setattr(som, "_direct_winner",
                            lambda c, x, winner=som._direct_winner:
                            rescored.append(1) or winner(c, x))
        with caplog.at_level("WARNING", logger="dam.evaluation"):
            result = run_single(train, test, cfg, som_seed=derive_seed(0, 0, 1), wdfs=wdfs)
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

    def test_repeats_multiply_folds(self, directional):
        cfg = small_config(runs=1, seed=3)
        agg = evaluate_loso(directional, cfg, repeats=2)
        assert len(agg.run_results) == 8
        seeds = [r.seed for r in agg.run_results]
        assert len(set(seeds)) == 8

    def test_repeats_below_one_rejected(self, directional):
        with pytest.raises(ValueError, match="repeats"):
            evaluate_loso(directional, small_config(), repeats=0)

    def test_parallel_equals_serial(self, directional):
        cfg = small_config(runs=1, seed=9)
        serial = evaluate_loso(directional, cfg, jobs=1, repeats=2)
        parallel = evaluate_loso(directional, cfg, jobs=2, repeats=2)
        assert [r.accuracy for r in serial.run_results] == [
            r.accuracy for r in parallel.run_results
        ]
        for s, p in zip(serial.run_results, parallel.run_results):
            assert_array_equal(s.confusion, p.confusion)
        assert_array_equal(serial.mean_confusion, parallel.mean_confusion)
        assert_allclose(serial.mean_accuracy, parallel.mean_accuracy, rtol=0, atol=0)


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
            evaluate_loso(directional, cfg, jobs=jobs, repeats=2)
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

    def test_subset_row_matches_direct_cross_validation(self, directional):
        from dam.dataset import filter_action_set

        cfg = small_config(runs=2, seed=4)
        rows = parameter_sweep(
            directional, cfg, windows=[2], grids=[(3, 3)], action_sets={"even": [0, 2]}
        )
        direct = cross_validate(filter_action_set(directional, [0, 2]), cfg)
        assert rows[0].mean_accuracy == direct.mean_accuracy
        assert rows[0].std_accuracy == direct.std_accuracy

    @pytest.mark.filterwarnings("ignore:class 99 not present")
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(windows=[1, 2], grids=[(2, 2), (0, 3)]), "grid must be at least 1x1"),
            (dict(windows=[2], grids=[(2, 2)], action_sets={"a": [0, 1], "z": [99]}),
             "no actions remain"),
            (dict(windows=[2, 10], grids=[(2, 2)]), r"window must be in .*, got 10"),
            (dict(windows=[0], grids=[(2, 2)]), r"window must be in .*, got 0"),
        ],
        ids=["grid", "subset", "late-window", "window"],
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
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        base = dict(preprocess=PreprocessParams(frames=10, window=2), rows=3, cols=3)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{**base, **kwargs})

    def test_cluster_count(self):
        cfg = ExperimentConfig(
            preprocess=PreprocessParams(frames=10, window=2), rows=4, cols=5
        )
        assert cfg.clusters == 20


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
