"""Acceptance suite: one labeled test per shipping criterion.

Each test is marked ``acceptance(<label>)`` and shows up as a PASS/FAIL/SKIP
line in the pytest summary. Oracles here are deliberately naive
re-implementations (linear scans, explicit tallies, double sums) so the fast
paths are checked against independent code, not against themselves.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dam import cli
from dam.classifier import ClassModel, fit_model, score_actions
from dam.dataset import load_msr_action3d, load_msrc12, write_canonical_dataset
from dam.descriptor import table_bins
from dam.evaluation import ExperimentConfig, cross_validate, parameter_sweep
from dam.preprocess import (
    PreprocessParams,
    direction_frames,
    preprocess_action,
    windowed_direction_frames,
)
from dam.som import SomGrid, SomTrainParams, bmu
from dam.synthetic import make_directional_dataset, make_ordered_dataset


# --- Criterion 1: brute-force oracle equivalence -----------------------------------


def _bmu_oracle(codebook: np.ndarray, x: np.ndarray) -> int:
    best, best_distance = 0, None
    for i, center in enumerate(codebook):
        distance = float(((center - x) ** 2).sum())
        if best_distance is None or distance < best_distance:
            best, best_distance = i, distance
    return best


def _histogram_oracle(codebook: np.ndarray, wdfs: np.ndarray) -> np.ndarray:
    counts = np.zeros(len(codebook))
    for vector in wdfs:
        counts[_bmu_oracle(codebook, vector)] += 1
    return counts / len(wdfs)


def _posterior_oracle(bins: np.ndarray, probs: np.ndarray) -> np.ndarray:
    scores = np.zeros(probs.shape[1])
    for j in range(probs.shape[1]):
        for l in range(len(bins)):
            scores[j] += bins[l] * probs[l, j]
    return scores


def _bins(grid: SomGrid, wdfs: np.ndarray) -> np.ndarray:
    """The histogram of one action's (n, dim) windows, from the bins core."""
    return table_bins(grid, wdfs, [len(wdfs)])[0]


@pytest.mark.acceptance("1 oracle equivalence")
def test_randomized_instances_match_brute_force_oracles():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()

    for _ in range(1000):
        codebook = rng.normal(size=(int(rng.integers(2, 12)), int(rng.integers(1, 6))))
        x = rng.normal(size=codebook.shape[1])
        assert bmu(SomGrid(1, len(codebook), codebook), x) == _bmu_oracle(codebook, x)

    for _ in range(1000):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        grid = SomGrid(rows, cols, rng.normal(size=(rows * cols, dim)))
        wdfs = rng.normal(size=(int(rng.integers(1, 12)), dim))
        assert_array_equal(
            _bins(grid, wdfs), _histogram_oracle(grid.codebook, wdfs)
        )

    for _ in range(1000):
        joints, window = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        units, n_classes = rows * cols, int(rng.integers(2, 6))
        probs = np.zeros((units, n_classes))
        for row in range(units):
            counts = rng.integers(0, 5, size=n_classes)
            if counts.sum() > 0:
                probs[row] = counts / counts.sum()
        codebook = rng.normal(size=(units, joints * 3 * window))
        model = ClassModel(
            grid=SomGrid(rows, cols, codebook),
            classes=list(range(n_classes)),
            cluster_class_probs=probs,
            params=PreprocessParams(frames=6, window=window),
            joint_count=joints,
        )
        counts = rng.integers(0, 6, size=units)
        if counts.sum() == 0:
            counts[0] = 1
        # A copy of unit l is won by unit l, so these windows have bins counts / n.
        wdfs = np.repeat(codebook, counts, axis=0)
        assert_allclose(
            score_actions(model, [wdfs])[0].scores,
            _posterior_oracle(counts / counts.sum(), probs),
            rtol=0, atol=1e-12,
        )

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s, budget is 10s"


# --- Criterion 2: invariances ---------------------------------------------------


def _sample_codebook(actions, params, units, seed) -> SomGrid:
    wdfs = np.vstack([preprocess_action(a, params) for a in actions])
    rng = np.random.default_rng(seed)
    rows = rng.choice(len(wdfs), size=units, replace=False)
    return SomGrid(4, units // 4, wdfs[rows].copy())


@pytest.mark.acceptance("2 descriptor invariances")
def test_translation_exact_scale_close_histograms_unit_mass():
    params = PreprocessParams(frames=12, window=3)
    rng = np.random.default_rng(77)

    # Exact translation invariance, checked on a lattice where every
    # coordinate and every shifted coordinate is a dyadic rational.
    lattice_actions = [
        rng.integers(-(2**12), 2**12, size=(14, 3, 3)).astype(np.float64) * 2.0**-6
        for _ in range(20)
    ]
    grid = SomGrid(
        4, 4,
        np.vstack([preprocess_action(a, params) for a in lattice_actions])[
            rng.choice(20 * (12 - 3), size=16, replace=False)
        ].copy(),
    )
    for positions in lattice_actions:
        offset = rng.integers(-(2**12), 2**12, size=3).astype(np.float64) * 2.0**-6
        base = _bins(grid, preprocess_action(positions, params))
        moved = _bins(grid, preprocess_action(positions + offset, params))
        assert_array_equal(moved, base)

    # Scale invariance within 1e-9 per bin for x10 and x0.1.
    corpus = make_directional_dataset(
        classes=3, subjects=3, instances=2, raw_frames=20, joints=3, seed=4
    )
    float_grid = _sample_codebook(list(corpus), params, 16, seed=5)
    for action in corpus:
        base = _bins(float_grid, preprocess_action(action, params))
        for factor in (10.0, 0.1):
            scaled = _bins(float_grid, preprocess_action(action.frames * factor, params))
            assert_allclose(scaled, base, rtol=0, atol=1e-9)

    # Unit mass on every action of every test corpus.
    ordered = make_ordered_dataset(
        classes=3, subjects=3, instances=2, raw_frames=24, joints=3, seed=6
    )
    for corpus_actions, codebook in (
        (list(corpus), float_grid),
        (list(ordered), _sample_codebook(list(ordered), params, 16, seed=7)),
        (lattice_actions, grid),
    ):
        for action in corpus_actions:
            histogram = _bins(codebook, preprocess_action(action, params))
            assert abs(histogram.sum() - 1.0) <= 1e-9


# --- Criterion 3: windowing identities -----------------------------------------


@pytest.mark.acceptance("3 windowing identities")
def test_windowing_identities():
    rng = np.random.default_rng(31)

    # Window of one reproduces the raw direction frames.
    directions = rng.normal(size=(9, 4, 3))
    assert_array_equal(
        windowed_direction_frames(directions, 1), directions.reshape(9, -1)
    )

    # Maximal window leaves exactly one vector: all direction frames joined.
    assert_array_equal(
        windowed_direction_frames(directions, 9), directions.reshape(1, -1)
    )

    # The count is frames - window for a spread of shapes.
    for frames, window in [(5, 1), (6, 5), (8, 3), (10, 9), (16, 3), (25, 24)]:
        params = PreprocessParams(frames=frames, window=window)
        action = rng.normal(size=(frames + 7, 2, 3))
        assert preprocess_action(action, params).shape[0] == frames - window
        assert params.wdf_count == frames - window


# --- Criterion 4: row-stochastic class probabilities -------------------------------


@pytest.mark.acceptance("4 row-stochastic class probabilities")
def test_cluster_rows_sum_to_one_or_are_empty():
    params = PreprocessParams(frames=10, window=2)
    corpora = [
        make_directional_dataset(classes=3, subjects=3, instances=2,
                                 raw_frames=20, joints=3, seed=1),
        make_ordered_dataset(classes=2, subjects=3, instances=2,
                             raw_frames=20, joints=3, seed=2),
    ]
    for corpus_index, corpus in enumerate(corpora):
        wdf_sets = [preprocess_action(a, params) for a in corpus]
        from dam.som import train_som

        grid = train_som(
            np.vstack(wdf_sets), 4, 4, SomTrainParams(epochs=6, seed=corpus_index)
        )
        model = fit_model(
            grid, wdf_sets, [a.label for a in corpus], params, corpus.joint_count
        )
        sums = model.cluster_class_probs.sum(axis=1)
        nonempty = sums > 0
        assert nonempty.any()
        assert_allclose(sums[nonempty], 1.0, rtol=0, atol=1e-9)


# --- Criterion 5: separable synthetic classes, perfect accuracy --------------------


@pytest.mark.acceptance("5 separable synthetic reaches 100%")
def test_disjoint_direction_vocabularies_classify_perfectly():
    started = time.perf_counter()
    dataset = make_directional_dataset(
        classes=3, subjects=10, instances=10, raw_frames=40, joints=4, seed=5
    )
    cfg = ExperimentConfig(
        preprocess=PreprocessParams(frames=16, window=3),
        rows=8,
        cols=8,
        som=SomTrainParams(epochs=20),
        runs=5,
        seed=0,
    )
    aggregate = cross_validate(dataset, cfg)
    elapsed = time.perf_counter() - started
    assert aggregate.mean_accuracy == 1.0, (
        f"expected perfect separation, got {aggregate.mean_accuracy:.4f} "
        f"(per run: {[round(r.accuracy, 4) for r in aggregate.run_results]})"
    )
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s, budget is 60s"


# --- Criterion 6: seeded CLI evaluation is byte-identical --------------------------


@pytest.mark.acceptance("6 seeded evaluate is byte-identical")
def test_cli_evaluate_same_seed_same_bytes(tmp_path):
    data = tmp_path / "data"
    write_canonical_dataset(
        make_directional_dataset(
            classes=3, subjects=4, instances=2, raw_frames=20, joints=3, seed=11
        ),
        data,
    )
    args = [
        "evaluate", str(data),
        "--frames", "10", "--window", "2", "--grid", "3x3", "--epochs", "4",
        "--runs", "3", "--seed", "42", "--jobs", "1",
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main([*args, "--output-dir", str(first)]) == 0
    assert cli.main([*args, "--output-dir", str(second)]) == 0
    assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()


# --- Criterion 7: benchmark reproduction (needs externally obtained data) ----------


def _benchmark_dir(env_var: str, fallback: str) -> Path:
    configured = os.environ.get(env_var)
    if configured:
        path = Path(configured)
        if not path.is_dir():
            pytest.skip(f"{env_var}={configured} is not a directory")
        return path
    path = Path(__file__).resolve().parent.parent / "data" / fallback
    if not path.is_dir():
        pytest.skip(
            f"benchmark data not found: set {env_var} or place files under data/{fallback}/"
        )
    return path


@pytest.mark.acceptance("7a action3d benchmark range")
def test_action3d_cross_subject_benchmark():
    directory = _benchmark_dir("DAM_ACTION3D_DIR", "msr_action3d")
    dataset = load_msr_action3d(directory)
    sets = cli.load_action_sets(
        Path(cli.__file__).parent / "configs" / "action3d_sets.json"
    )
    cfg = ExperimentConfig(
        preprocess=PreprocessParams(frames=25, window=3),
        rows=25,
        cols=25,
        som=SomTrainParams(epochs=20),
        runs=30,
        seed=0,
    )
    rows = parameter_sweep(
        dataset, cfg, windows=[3], grids=[(25, 25)],
        action_sets=sets, jobs=os.cpu_count() or 1,
    )
    mean_row = next(r for r in rows if r.subset == "mean")
    percent = 100.0 * mean_row.mean_accuracy
    assert 92.0 <= percent <= 96.0, f"subset-mean accuracy {percent:.2f}% outside [92, 96]"


@pytest.mark.acceptance("7b msrc12 benchmark range")
def test_msrc12_cross_subject_benchmark():
    directory = _benchmark_dir("DAM_MSRC12_DIR", "msrc12")
    dataset = load_msrc12(directory)
    cfg = ExperimentConfig(
        preprocess=PreprocessParams(frames=16, window=5),
        rows=30,
        cols=30,
        som=SomTrainParams(epochs=20),
        runs=30,
        seed=0,
    )
    aggregate = cross_validate(dataset, cfg, jobs=os.cpu_count() or 1)
    percent = 100.0 * aggregate.mean_accuracy
    assert 89.5 <= percent <= 93.5, f"mean accuracy {percent:.2f}% outside [89.5, 93.5]"


# --- Criterion 8: windows help when only ordering distinguishes classes ------------


@pytest.mark.acceptance("8 windowing beats single steps")
def test_windowed_descriptor_beats_single_steps_on_order_only_classes():
    dataset = make_ordered_dataset(
        classes=3, subjects=8, instances=6, raw_frames=36, joints=3, seed=2
    )

    def mean_accuracy(window: int) -> float:
        cfg = ExperimentConfig(
            preprocess=PreprocessParams(frames=16, window=window),
            rows=6,
            cols=6,
            som=SomTrainParams(epochs=12),
            runs=5,
            seed=0,
        )
        return cross_validate(dataset, cfg).mean_accuracy

    wide, narrow = mean_accuracy(3), mean_accuracy(1)
    assert wide >= narrow, f"W=3 accuracy {wide:.4f} < W=1 accuracy {narrow:.4f}"
