"""Tests for per-cluster class probabilities, posterior scoring, and model files."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from dam import classifier as classifier_module
from dam import descriptor
from dam.classifier import (
    MODEL_FORMAT_VERSION,
    ClassModel,
    Posterior,
    classify_action,
    fit_model,
    load_model,
    save_model,
    score_actions,
    table_class_probabilities,
)
from dam.dataset import Action
from dam.preprocess import PreprocessParams, preprocess_action
from dam.som import SomGrid, SomTrainParams, bmu, bmu_batch, train_som


def _posterior_oracle(probs, bins):
    """Direct double sum over clusters and classes."""
    scores = [0.0] * probs.shape[1]
    for l in range(probs.shape[0]):
        for c in range(probs.shape[1]):
            scores[c] += probs[l, c] * bins[l]
    return np.array(scores)


class TestEstimate:
    def test_hand_worked_tiny_case(self):
        """Unit 0 sees two 'a' vectors, unit 1 sees one 'b' vector."""
        grid = SomGrid(rows=1, cols=2, codebook=np.array([[0.0], [10.0]]))
        classes, probs = table_class_probabilities(
            grid,
            np.array([[0.1], [0.2], [9.9]]),
            ["a", "b"],
            [2, 1],
        )
        assert classes == ["a", "b"]
        assert_array_equal(probs, [[1.0, 0.0], [0.0, 1.0]])

    def test_mixed_cluster_proportions(self):
        grid = SomGrid(rows=1, cols=2, codebook=np.array([[0.0], [10.0]]))
        classes, probs = table_class_probabilities(
            grid,
            np.array([[0.1], [0.2], [0.3], [0.4]]),
            ["a", "b"],
            [3, 1],
        )
        assert_allclose(probs[0], [0.75, 0.25])
        assert_array_equal(probs[1], [0.0, 0.0])  # unit 1 never wins -> all zero

    def test_rows_are_stochastic_or_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            grid = SomGrid(rows=1, cols=k, codebook=rng.normal(size=(k, 3)))
            sets, labels = [], []
            for label in range(int(rng.integers(2, 5))):
                sets.append(rng.normal(size=(int(rng.integers(1, 8)), 3)))
                labels.append(label)
            _, probs = table_class_probabilities(grid, np.concatenate(sets), labels,
                                                 [len(s) for s in sets])
            sums = probs.sum(axis=1)
            assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))

    def test_explicit_class_order_and_unknown_label(self):
        grid = SomGrid(rows=1, cols=1, codebook=np.zeros((1, 1)))
        classes, probs = table_class_probabilities(
            grid, np.array([[0.0]]), ["b"], [1], classes=["a", "b"]
        )
        assert classes == ["a", "b"]
        assert_array_equal(probs, [[0.0, 1.0]])
        with pytest.raises(ValueError):
            table_class_probabilities(grid, np.array([[0.0]]), ["c"], [1], classes=["a"])

    def test_one_winner_search_gives_the_per_vector_counts(self, monkeypatch):
        rng = np.random.default_rng(11)
        grid = SomGrid(rows=2, cols=3, codebook=rng.normal(size=(6, 4)))
        sets = [rng.normal(size=(int(n), 4)) for n in rng.integers(0, 6, size=12)]
        labels = [int(v) for v in rng.integers(0, 3, size=12)]
        counts = np.zeros((6, 3))
        for wdfs, label in zip(sets, labels):
            for x in wdfs:
                counts[bmu(grid, x), label] += 1
        calls = []
        monkeypatch.setattr(classifier_module, "bmu_batch",
                            lambda g, xs, subset=None: calls.append(
                                len(xs) if subset is None else len(subset))
                            or bmu_batch(g, xs, subset=subset))
        classes, probs = table_class_probabilities(grid, np.concatenate(sets), labels,
                                                   [len(s) for s in sets])
        assert calls == [sum(map(len, sets))]
        sums = counts.sum(axis=1, keepdims=True)
        want = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
        assert classes == [0, 1, 2]
        assert probs.tobytes() == want.tobytes()

    def test_requires_training_vectors(self):
        grid = SomGrid(rows=1, cols=1, codebook=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            table_class_probabilities(grid, np.zeros((0, 2)), [], [])


def _units_on_a_line(units, dim):
    """(units, dim) codebook with unit l at l * e_0: a copy of unit l is won by l alone,
    so repeating unit l n_l times gives any histogram of counts n_l exactly."""
    return np.outer(np.arange(units, dtype=np.float64), np.eye(1, dim)[0])


class TestPosterior:
    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(7)
        params = PreprocessParams(frames=8, window=2)
        for _ in range(300):
            k = int(rng.integers(1, 20))
            c = int(rng.integers(1, 6))
            counts = rng.integers(0, 5, size=(k, c)).astype(float)
            totals = counts.sum(axis=1)
            probs = np.divide(
                counts, totals[:, None], out=np.zeros_like(counts), where=totals[:, None] > 0
            )
            hits = rng.integers(0, 4, size=k)
            if hits.sum() == 0:
                hits[0] = 1
            bins = hits / hits.sum()
            codebook = _units_on_a_line(k, params.feature_dim(1))
            grid = SomGrid(rows=1, cols=k, codebook=codebook)
            model = ClassModel(
                grid=grid,
                classes=list(range(c)),
                cluster_class_probs=probs,
                params=params,
                joint_count=1,
            )
            post = score_actions(model, [np.repeat(codebook, hits, axis=0)])[0]
            want = _posterior_oracle(probs, bins)
            assert np.abs(post.scores - want).max() <= 1e-12
            assert post.scores.min() >= 0.0
            assert post.scores.sum() <= 1.0 + 1e-9

    def test_tie_goes_to_first_class_in_order(self):
        params = PreprocessParams(frames=8, window=2)
        grid = SomGrid(rows=1, cols=2, codebook=_units_on_a_line(2, params.feature_dim(1)))
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        model = ClassModel(grid, ["x", "y"], probs, params, joint_count=1)
        post = score_actions(model, [grid.codebook])[0]
        assert post.scores[0] == post.scores[1]
        assert post.predicted == "x"

    def test_normalized_scores(self):
        post = Posterior(classes=("a", "b"), scores=np.array([0.3, 0.1]))
        assert_allclose(post.normalized(), [0.75, 0.25])
        zero = Posterior(classes=("a", "b"), scores=np.zeros(2))
        assert_array_equal(zero.normalized(), [0.0, 0.0])


class TestScoreActions:
    def test_each_row_is_the_posterior_of_its_own_histogram(self, monkeypatch):
        rng = np.random.default_rng(5)
        params = PreprocessParams(frames=8, window=2)
        dim = params.feature_dim(1)
        codebook = rng.normal(size=(25, dim))
        probs = rng.dirichlet(np.ones(4), size=25)
        probs[7] = 0.0  # a unit no training window won
        model = ClassModel(SomGrid(5, 5, codebook), ["a", "b", "c", "d"], probs, params,
                           joint_count=1)
        sets = [rng.normal(size=(n, dim)) for n in (1, 9, 40, 3)]
        # Every window of the last set lands on the dead unit: zero evidence.
        sets.append(codebook[7] + 1e-3 * rng.normal(size=(6, dim)))
        searches = []
        monkeypatch.setattr(descriptor, "bmu_batch",
                            lambda g, xs, subset=None: searches.append(
                                len(xs) if subset is None else len(subset))
                            or bmu_batch(g, xs, subset=subset))
        posteriors = score_actions(model, sets)
        assert searches == [sum(map(len, sets))]
        monkeypatch.undo()

        for posterior, wdfs in zip(posteriors, sets, strict=True):
            want = score_actions(model, [wdfs])[0]
            assert posterior.classes == want.classes == ("a", "b", "c", "d")
            assert posterior.scores.tobytes() == want.scores.tobytes()
        assert [p.zero_evidence for p in posteriors] == [False] * 4 + [True]
        assert posteriors[-1].predicted == "a"

    def test_no_sets_give_no_posteriors_without_a_search(self, monkeypatch):
        model, _ = _toy_model()
        monkeypatch.setattr(descriptor, "bmu_batch",
                            lambda g, xs, subset=None: pytest.fail("searched"))
        assert score_actions(model, []) == []


# Malformed per-action WDF sets for a codebook of dimension 6.
_MALFORMED_SETS = {
    "1-D": np.zeros(6),
    "3-D": np.zeros((2, 3, 6)),
    "wrong dimension": np.zeros((4, 5)),
}


class TestListsOfSets:
    @pytest.mark.parametrize("bad", list(_MALFORMED_SETS))
    @pytest.mark.parametrize("entry", ["fit_model", "score_actions"])
    def test_a_malformed_set_is_refused_by_its_index(self, entry, bad):
        params = PreprocessParams(frames=8, window=2)
        grid = SomGrid(rows=1, cols=2, codebook=_units_on_a_line(2, params.feature_dim(1)))
        sets = [grid.codebook, _MALFORMED_SETS[bad], grid.codebook]
        shape = re.escape(str(_MALFORMED_SETS[bad].shape))
        with pytest.raises(ValueError, match=rf"^WDF set 1 has shape {shape}, expected a "
                                             rf"(non-empty )?\(n, 6\) array$"):
            if entry == "fit_model":
                fit_model(grid, sets, ["a", "b", "a"], params, joint_count=1)
            else:
                score_actions(ClassModel(grid, ["a", "b"], np.eye(2), params, 1), sets)

    def test_an_empty_set_is_fitted_but_not_scored(self):
        params = PreprocessParams(frames=8, window=2)
        grid = SomGrid(rows=1, cols=2, codebook=_units_on_a_line(2, params.feature_dim(1)))
        sets = [grid.codebook, np.zeros((0, 6))]
        model = fit_model(grid, sets, ["a", "b"], params, joint_count=1)
        assert_array_equal(model.cluster_class_probs, [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"^WDF set 1 has shape \(0, 6\), expected a "
                                             r"non-empty \(n, 6\) array$"):
            score_actions(model, sets)


def _toy_model(seed=0, joints=2, frames=10, window=2, rows=2, cols=2):
    """End-to-end trained model on two well-separated synthetic classes."""
    rng = np.random.default_rng(seed)
    params = PreprocessParams(frames=frames, window=window)
    actions, sets, labels = [], [], []
    for label, axis in (("left", 0), ("up", 1)):
        for i in range(6):
            steps = rng.uniform(0.5, 1.5, size=(12, joints, 1))
            direction = np.zeros((1, 1, 3))
            direction[0, 0, axis] = 1.0
            frames_arr = np.cumsum(steps * direction, axis=0)
            action = Action(id=f"{label}{i}", subject=i % 3 + 1, label=label,
                            frames=frames_arr)
            actions.append(action)
            sets.append(preprocess_action(action, params))
            labels.append(label)
    grid = train_som(np.vstack(sets), rows, cols, SomTrainParams(epochs=8, seed=seed))
    model = fit_model(grid, sets, labels, params, joint_count=joints)
    return model, actions


def _header_end(data: bytes) -> int:
    """The length of a model file's line 1, its newline included."""
    return data.index(b"\n") + 1


def _with_values(data: bytes, at: int, values) -> bytes:
    """Model file bytes with the float64 values from the `at`-th of its body on replaced."""
    start = _header_end(data) + 8 * at
    raw = np.asarray(values, dtype="<f8").tobytes()
    return data[:start] + raw + data[start + len(raw):]


_WRONG_SIZE = (r"the arrays after line 1 hold \d+ bytes, "
               r"expected 8 \* units \* \(dim \+ classes\) = 448")


def _header_edit(edit):
    """An edit of a model file's bytes that replaces line 1's payload by
    ``edit(payload)``, unpadded, and keeps the bytes after it."""
    def apply(data):
        header, body = data.split(b"\n", 1)
        return json.dumps(edit(json.loads(header))).encode() + b"\n" + body
    return apply


def _grid_edit(**change):
    """A `_header_edit` that sets the fields of the grid in `change`."""
    return _header_edit(lambda p: {**p, "grid": {**p["grid"], **change}})


# Edits of a saved 2x2, 2-class model file's bytes whose error names the file.
_FILE_CASES = {
    "empty file": (lambda data: b"", "line 1 is not valid JSON"),
    "line 1 cut short": (lambda data: data[:20] + data[data.index(b"\n"):],
                         "line 1 is not valid JSON"),
    "line 1 not UTF-8": (lambda data: b"\xff" + data, "line 1 is not valid JSON"),
    "no body": (lambda data: data[:_header_end(data)], _WRONG_SIZE),
    "no newline": (lambda data: data[:_header_end(data) - 1], _WRONG_SIZE),
    "space before the body": (lambda data: data[:_header_end(data)] + b" "
                              + data[_header_end(data):], _WRONG_SIZE),
    "a second header": (lambda data: data + data[:_header_end(data)], _WRONG_SIZE),
    "zero rows": (_grid_edit(rows=0), r"fields 'grid.rows', 'grid.cols', 'grid.dim' "
                                      r"must be >= 1, got 0, 2, 12$"),
    "negative cols": (_grid_edit(cols=-2), r"fields 'grid.rows', 'grid.cols', 'grid.dim' "
                                           r"must be >= 1, got 2, -2, 12$"),
    "zero dim": (_grid_edit(dim=0), r"fields 'grid.rows', 'grid.cols', 'grid.dim' "
                                    r"must be >= 1, got 2, 2, 0$"),
    "no class": (lambda data: _header_edit(lambda p: {**p, "classes": []})(data)[:-64],
                 "model needs at least one class$"),
    "a class twice": (_header_edit(lambda p: {**p, "classes": p["classes"][:1] * 2}),
                      "duplicate class labels$"),
    "joint count off by one": (_header_edit(lambda p: {**p, "joint_count": 3}),
                               r"codebook dimension 12 does not match "
                               r"joint_count \* 3 \* window = 18$"),
}

# Bytes the property test inserts into a model file.
_SNIPPETS = [b'"', b"\\", b" ", b"\t", b"\r", b"\n", b"0", b"A", b"g", b",", b":", b"{",
             b"}", b"[", b"]", b"NaN", b"Infinity", b"true", b"\\u0030", b'"probs":[],',
             b'"grid":{', b'"",', bytes(8), b"\xff" * 8]


def _load_outcome(path):
    """("model", the bytes save_model writes for the loaded model, whether its
    codebook is read-only) or ("error", the error text)."""
    try:
        model = load_model(path)
    except ValueError as e:
        return "error", str(e)
    again = path.with_name("again.json")
    save_model(model, again)
    return "model", again.read_bytes(), not model.grid.codebook.flags.writeable


def _oracle_model(path):
    """The bytes save_model writes for the model in `path` when its first line is
    read by `json.loads` and the rest by `np.frombuffer`; None when that
    reading gives no model."""
    header, _, body = path.read_bytes().partition(b"\n")
    try:
        payload = json.loads(header)
        if payload.pop("format_version") != MODEL_FORMAT_VERSION:
            return None
        grid, classes = payload.pop("grid"), payload.pop("classes")
        units = grid["rows"] * grid["cols"]
        values = np.frombuffer(body, dtype="<f8")
        codebook = values[:units * grid["dim"]].reshape(units, grid["dim"])
        probs = values[units * grid["dim"]:].reshape(units, len(classes))
        model = ClassModel(SomGrid(grid["rows"], grid["cols"], codebook), classes, probs,
                           PreprocessParams(**payload.pop("preprocess")),
                           payload.pop("joint_count"))
        if payload or set(grid) != {"rows", "cols", "dim"}:
            return None
    except (ValueError, TypeError, KeyError, AttributeError):
        return None
    again = path.with_name("oracle.json")
    save_model(model, again)
    return again.read_bytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LABEL = st.one_of(st.integers(-2**31, 2**31), st.text(max_size=6))


@st.composite
def _models(draw):
    """A model of a random grid, joint count and class list, whose codebook takes
    any finite float64 and whose probability rows sum to 1 or are all zero."""
    rows, cols, joints = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    params = PreprocessParams(frames=4, window=draw(st.integers(1, 3)))
    units, dim = rows * cols, params.feature_dim(joints)
    codebook = draw(hnp.arrays(np.float64, (units, dim), elements=_FINITE))
    classes = draw(st.lists(_LABEL, min_size=1, max_size=4, unique_by=repr))
    weights = draw(hnp.arrays(np.float64, (units, len(classes)),
                              elements=st.floats(0.0, 1.0) | st.just(-0.0)))
    sums = weights.sum(axis=1, keepdims=True)
    probs = np.divide(weights, sums, out=weights.copy(), where=sums > 0)
    return ClassModel(SomGrid(rows, cols, codebook), classes, probs, params, joints)


class TestClassifyAction:
    def test_classifies_its_own_training_classes(self):
        model, actions = _toy_model()
        for action in actions:
            assert classify_action(model, action).predicted == action.label

    def test_joint_count_mismatch_is_informative(self):
        model, _ = _toy_model()
        bad = Action(id="bad", subject=1, label="left",
                     frames=np.random.default_rng(0).normal(size=(12, 5, 3)))
        with pytest.raises(ValueError, match="5"):
            classify_action(model, bad)

    def test_translation_and_scale_invariance(self):
        model, actions = _toy_model()
        action = actions[0]
        base = classify_action(model, action)
        shifted = Action(id="s", subject=1, label="left",
                         frames=action.frames + np.array([128.0, -64.0, 32.0]))
        scaled = Action(id="m", subject=1, label="left", frames=action.frames * 10.0)
        assert_array_equal(classify_action(model, shifted).scores, base.scores)
        assert_allclose(classify_action(model, scaled).scores, base.scores, atol=1e-9)


class TestModelFile:
    def test_round_trip_preserves_everything_exactly(self, tmp_path):
        model, _ = _toy_model(seed=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert_array_equal(loaded.grid.codebook, model.grid.codebook)
        assert_array_equal(loaded.cluster_class_probs, model.cluster_class_probs)
        assert loaded.classes == model.classes
        assert loaded.params == model.params
        assert loaded.joint_count == model.joint_count
        assert loaded.grid.rows == model.grid.rows
        again = tmp_path / "again.json"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_same_seed_gives_byte_identical_model_files(self, tmp_path):
        m1, _ = _toy_model(seed=11)
        m2, _ = _toy_model(seed=11)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_a_padded_json_line_then_raw_float64(self, tmp_path):
        # Line 1 is json.dumps of every field but the two arrays, quotes and
        # non-ASCII included, padded with spaces to end on a multiple of 8
        # bytes; the codebook and the probabilities follow as little-endian
        # float64.
        model, _ = _toy_model(seed=5, rows=3, cols=4)
        model.classes = ['say "hi"', "caf\u00e9"]
        path = tmp_path / "m.json"
        save_model(model, path)
        data = path.read_bytes()
        end = _header_end(data)
        header = data[:end - 1].rstrip(b" ")
        assert end % 8 == 0 and end - len(header) <= 8
        payload = json.loads(header)
        assert payload["classes"] == model.classes
        assert payload["grid"] == {"rows": 3, "cols": 4, "dim": model.grid.dim}
        assert "cluster_class_probs" not in payload
        assert header == json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        assert data[end:] == (model.grid.codebook.astype("<f8").tobytes()
                              + model.cluster_class_probs.astype("<f8").tobytes())

    def test_integer_and_string_labels_survive(self, tmp_path):
        params = PreprocessParams(frames=8, window=2)
        grid = SomGrid(rows=1, cols=2, codebook=np.zeros((2, params.feature_dim(1))))
        model = ClassModel(grid, [2, "wave"], np.array([[1.0, 0.0], [0.0, 1.0]]),
                           params, joint_count=1)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).classes == [2, "wave"]

    def test_unsupported_version_fails(self, tmp_path, rewrite_model_payload):
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        rewrite_model_payload(path, lambda p: {**p, "format_version": "999"})
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("version", ["1", "2", "3"])
    def test_format_1_file_names_both_versions(self, tmp_path, version):
        # Format 1 held the codebook as decimals and format 2 as hex, both in
        # one JSON object on one line; format 3 held the probabilities on
        # line 1 and the codebook's hex on line 2. Each is refused by its
        # version.
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_bytes().split(b"\n")[0])
        payload["format_version"] = version
        payload["cluster_class_probs"] = model.cluster_class_probs.tolist()
        hex_ = model.grid.codebook.tobytes().hex()
        if version != "3":
            payload["grid"]["codebook"] = model.grid.codebook.tolist() if version == "1" else hex_
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        path.write_text(text + f'"{hex_}"\n' * (version == "3"))
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(str(path))}: unsupported model format version '{version}' "
                r"\(this build reads '4'\); re-create it with `dam train`$")):
            load_model(path)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(model=_models())
    @example(model=ClassModel(
        SomGrid(1, 2, np.array([[-0.0, 5e-324, -2.2250738585072014e-308],
                                [1.7976931348623157e308, -1.7976931348623157e308, 0.0]])),
        [0, "\u00e9\U0001f600"], np.array([[-0.0, 1.0], [5e-324, 1.0]]),
        PreprocessParams(frames=4, window=1), 1))
    def test_every_model_round_trips_bit_for_bit(self, tmp_path, model):
        path, again = tmp_path / "m.json", tmp_path / "again.json"
        save_model(model, path)
        loaded = load_model(path)
        save_model(model, again)
        assert again.read_bytes() == path.read_bytes()
        assert loaded.grid.codebook.tobytes() == model.grid.codebook.tobytes()
        assert loaded.cluster_class_probs.tobytes() == model.cluster_class_probs.tobytes()
        assert (loaded.classes, loaded.params, loaded.joint_count) == (
            model.classes, model.params, model.joint_count)
        assert (loaded.grid.rows, loaded.grid.cols) == (model.grid.rows, model.grid.cols)
        codebook, probs = loaded.grid.codebook, loaded.cluster_class_probs
        assert codebook.dtype == probs.dtype == np.float64
        assert not codebook.flags.writeable and codebook.flags.c_contiguous
        assert codebook.flags.aligned and probs.flags.writeable

    @pytest.mark.parametrize("change", [*range(-16, 0), *range(1, 17)])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(model=_models())
    def test_a_body_cut_or_extended_by_any_byte_count_is_refused(self, tmp_path, model,
                                                                 change):
        path = tmp_path / "m.json"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + b"\x00" * change)
        units, width = model.grid.unit_count, model.grid.dim + len(model.classes)
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(str(path))}: the arrays after line 1 hold "
                rf"{len(data) - _header_end(data) + change} bytes, expected 8 \* units \* "
                rf"\(dim \+ classes\) = {8 * units * width}$")):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 5, -1])
    def test_a_codebook_value_that_is_not_finite_is_refused(self, tmp_path, value, at):
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_bytes(_with_values(path.read_bytes(), at % model.grid.codebook.size, [value]))
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(str(path))}: codebook contains non-finite values$")):
            load_model(path)

    def test_a_negative_probability_is_refused(self, tmp_path):
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_bytes(_with_values(path.read_bytes(), model.grid.codebook.size, [-0.5, 1.5]))
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(str(path))}: cluster_class_probs contains negative entries$")):
            load_model(path)

    def test_an_unaligned_body_is_read_into_an_aligned_codebook(self, tmp_path,
                                                                rewrite_model_payload):
        # rewrite_model_payload writes line 1 unpadded, so the body after it
        # starts off a multiple of 8 bytes.
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        saved = path.read_bytes()
        rewrite_model_payload(path, lambda p: p)
        assert _header_end(path.read_bytes()) % 8
        assert _load_outcome(path) == ("model", saved, True)
        assert load_model(path).grid.codebook.flags.aligned

    @pytest.mark.parametrize("case", list(_FILE_CASES))
    def test_a_damaged_file_is_refused_by_name(self, tmp_path, case):
        edit, error = _FILE_CASES[case]
        model, _ = _toy_model()
        saved = tmp_path / "saved.json"
        save_model(model, saved)
        path = tmp_path / "m.json"
        path.write_bytes(edit(saved.read_bytes()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}"):
            load_model(path)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_an_edited_file_gives_its_oracle_model_or_an_error_naming_it(self, tmp_path, data):
        # One snippet inserted anywhere in a saved file, or as many bytes
        # overwritten: the loaded model is the one json.loads and
        # np.frombuffer read from the file's two parts, or the error names
        # the file.
        model, _ = _toy_model(rows=1, cols=2)
        path = tmp_path / "m.json"
        save_model(model, path)
        saved = path.read_bytes()
        at = data.draw(st.integers(0, len(saved)))
        snippet = data.draw(st.sampled_from(_SNIPPETS))
        cut = data.draw(st.sampled_from([0, len(snippet)]))
        path.write_bytes(saved[:at] + snippet + saved[at + cut:])
        outcome = _load_outcome(path)
        if outcome[0] == "model":
            assert outcome[1:] == (_oracle_model(path), True)
        else:
            assert outcome[1].startswith(f"{path}: ")

    def test_file_bytes_match_the_pinned_digest(self, tmp_path):
        # Fails on any change of key order, separators, padding, array order
        # or byte order; bump MODEL_FORMAT_VERSION with such a change.
        params = PreprocessParams(frames=4, window=1)
        codebook = np.array([[0.1, -0.0, 5e-324], [1e300, -2.5, 3.0]])
        model = ClassModel(SomGrid(rows=1, cols=2, codebook=codebook), [0, "b"],
                           np.array([[1.0, 0.0], [0.25, 0.75]]), params, joint_count=1)
        path = tmp_path / "m.json"
        save_model(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "29232bb6f23b1c6c891f32771b50eaa3b715f1be6e6ab194458d6065230bb86b"

    def test_corrupted_probability_rows_fail_validation(self, tmp_path):
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_bytes(_with_values(path.read_bytes(), model.grid.codebook.size, [0.4, 0.4]))
        with pytest.raises(ValueError, match="row 0 sums to"):
            load_model(path)

    def test_model_validation_catches_shape_drift(self):
        params = PreprocessParams(frames=8, window=2)
        grid = SomGrid(rows=1, cols=2, codebook=np.zeros((2, params.feature_dim(1))))
        with pytest.raises(ValueError):
            ClassModel(grid, ["a"], np.ones((3, 1)), params, joint_count=1)
        with pytest.raises(ValueError):  # dim inconsistent with joints * 3 * window
            ClassModel(grid, ["a"], np.ones((2, 1)), params, joint_count=2)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("miss, refused", [(2e-9, True), (5e-10, False)])
    def test_probability_rows_sum_to_one_within_1e_9(self, miss, refused, sign):
        params = PreprocessParams(frames=8, window=2)
        grid = SomGrid(rows=1, cols=2, codebook=np.zeros((2, params.feature_dim(1))))
        probs = np.array([[0.25, 0.75], [0.5, 0.5 + sign * miss]])
        assert abs(abs(probs[1].sum() - 1.0) - miss) < 1e-15
        if refused:
            with pytest.raises(ValueError, match="row 1 sums to"):
                ClassModel(grid, ["a", "b"], probs, params, joint_count=1)
        else:
            ClassModel(grid, ["a", "b"], probs, params, joint_count=1)
