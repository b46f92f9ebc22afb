"""Tests for per-cluster class probabilities, posterior scoring, and model files."""

import hashlib
import json
import re
from unittest import mock

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
    class_posterior,
    classify_action,
    estimate_class_probabilities,
    fit_model,
    load_model,
    save_model,
    score_actions,
)
from dam.dataset import Action
from dam.descriptor import Histogram, compute_histogram
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
        classes, probs = estimate_class_probabilities(
            grid,
            [np.array([[0.1], [0.2]]), np.array([[9.9]])],
            ["a", "b"],
        )
        assert classes == ["a", "b"]
        assert_array_equal(probs, [[1.0, 0.0], [0.0, 1.0]])

    def test_mixed_cluster_proportions(self):
        grid = SomGrid(rows=1, cols=2, codebook=np.array([[0.0], [10.0]]))
        classes, probs = estimate_class_probabilities(
            grid,
            [np.array([[0.1], [0.2], [0.3]]), np.array([[0.4]])],
            ["a", "b"],
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
            _, probs = estimate_class_probabilities(grid, sets, labels)
            sums = probs.sum(axis=1)
            assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))

    def test_explicit_class_order_and_unknown_label(self):
        grid = SomGrid(rows=1, cols=1, codebook=np.zeros((1, 1)))
        classes, probs = estimate_class_probabilities(
            grid, [np.array([[0.0]])], ["b"], classes=["a", "b"]
        )
        assert classes == ["a", "b"]
        assert_array_equal(probs, [[0.0, 1.0]])
        with pytest.raises(ValueError):
            estimate_class_probabilities(grid, [np.array([[0.0]])], ["c"], classes=["a"])

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
                            lambda g, xs: calls.append(len(xs)) or bmu_batch(g, xs))
        classes, probs = estimate_class_probabilities(grid, sets, labels)
        assert calls == [sum(map(len, sets))]
        sums = counts.sum(axis=1, keepdims=True)
        want = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
        assert classes == [0, 1, 2]
        assert probs.tobytes() == want.tobytes()

    def test_requires_training_vectors(self):
        grid = SomGrid(rows=1, cols=1, codebook=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            estimate_class_probabilities(grid, [], [])


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
            bins = rng.integers(0, 4, size=k).astype(float)
            if bins.sum() == 0:
                bins[0] = 1.0
            bins /= bins.sum()
            grid = SomGrid(rows=1, cols=k, codebook=np.zeros((k, params.feature_dim(1) )))
            model = ClassModel(
                grid=grid,
                classes=list(range(c)),
                cluster_class_probs=probs,
                params=params,
                joint_count=1,
            )
            post = class_posterior(model, Histogram(bins, int(bins.size)))
            want = _posterior_oracle(probs, bins)
            assert np.abs(post.scores - want).max() <= 1e-12
            assert post.scores.min() >= 0.0
            assert post.scores.sum() <= 1.0 + 1e-9

    def test_tie_goes_to_first_class_in_order(self):
        params = PreprocessParams(frames=8, window=2)
        grid = SomGrid(rows=1, cols=2, codebook=np.zeros((2, params.feature_dim(1))))
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        model = ClassModel(grid, ["x", "y"], probs, params, joint_count=1)
        post = class_posterior(model, Histogram(np.array([0.5, 0.5]), 2))
        assert post.scores[0] == post.scores[1]
        assert post.predicted == "x"

    def test_normalized_scores(self):
        post = Posterior(classes=("a", "b"), scores=np.array([0.3, 0.1]))
        assert_allclose(post.normalized(), [0.75, 0.25])
        zero = Posterior(classes=("a", "b"), scores=np.zeros(2))
        assert_array_equal(zero.normalized(), [0.0, 0.0])

    def test_histogram_length_must_match(self):
        params = PreprocessParams(frames=8, window=2)
        grid = SomGrid(rows=1, cols=2, codebook=np.zeros((2, params.feature_dim(1))))
        model = ClassModel(grid, ["a"], np.array([[1.0], [1.0]]), params, joint_count=1)
        with pytest.raises(ValueError):
            class_posterior(model, Histogram(np.ones(3) / 3.0, 3))


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
                            lambda g, xs: searches.append(len(xs)) or bmu_batch(g, xs))
        posteriors = score_actions(model, sets)
        assert searches == [sum(map(len, sets))]
        monkeypatch.undo()

        for posterior, wdfs in zip(posteriors, sets, strict=True):
            want = class_posterior(model, compute_histogram(model.grid, wdfs))
            assert posterior.classes == want.classes == ("a", "b", "c", "d")
            assert posterior.scores.tobytes() == want.scores.tobytes()
        assert [p.zero_evidence for p in posteriors] == [False] * 4 + [True]
        assert posteriors[-1].predicted == "a"


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


def _edit_hex(edit):
    """An edit of a model file's text that rewrites its codebook hex."""
    def apply(text):
        start = text.index('"codebook":"') + len('"codebook":"')
        end = text.index('"', start)
        return text[:start] + edit(text[start:end]) + text[end:]
    return apply


# Edits of a saved model file's text, and whether the spliced load takes the
# edited file (otherwise the whole file is parsed as JSON).
_SPLICE_CASES = {
    "saved": (lambda text: text, True),
    "uppercase hex": (_edit_hex(str.upper), True),
    "hex with spaces": (_edit_hex(lambda h: h[:16] + " " + h[16:]), False),
    "escaped digit": (_edit_hex(lambda h: h.replace("0", "\\u0030", 1)), False),
    "odd-length hex": (_edit_hex(lambda h: h[:-1]), False),
    "not hex": (_edit_hex(lambda h: "g" + h[1:]), False),
    "one value too many": (_edit_hex(lambda h: h + "00" * 8), True),
    "label holding the key": (
        lambda text: text.replace('"left"', '"\\"codebook\\":\\""', 1), True),
    "duplicate key, empty first": (
        lambda text: text.replace('"codebook":"', '"codebook":"","codebook":"'), False),
    "duplicate key, empty last": (_edit_hex(lambda h: h + '","codebook":"'), False),
    "escaped duplicate key first": (
        lambda text: text.replace('"codebook":"', '"cod\\u0065book":"00","codebook":"'), True),
    "top-level key": (lambda text: '{"codebook":"00",' + text[1:], False),
    "NaN elsewhere": (
        lambda text: re.sub(r'("cluster_class_probs":\[\[)[^,\]]+', r"\1NaN", text), False),
    "truncated in the hex": (
        lambda text: text[:text.index('"codebook":"') + 20], False),
    "truncated after the hex": (lambda text: text[:-3], False),
}

# Text the property test splices into a model file.
_SPLICE_SNIPPETS = ['"', "\\", " ", "\n", "0", "A", "g", ",", ":", "{", "}", "[", "]", "NaN",
                    "Infinity", "\\u0030", '"codebook":"', '"codebook":"00",', '"grid":{',
                    '"",']


def _load_outcome(path):
    """("model", the bytes save_model writes for the loaded model, whether its
    codebook is writeable) or ("error", the error text)."""
    try:
        model = load_model(path)
    except ValueError as e:
        return "error", str(e)
    again = path.with_name("again.json")
    save_model(model, again)
    return "model", again.read_bytes(), model.grid.codebook.flags.writeable


def _whole_file_outcome(path):
    """`_load_outcome` with every file parsed as whole JSON text."""
    with mock.patch.object(classifier_module, "_spliced_payload", lambda data: None):
        return _load_outcome(path)


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

    def test_file_is_the_plain_json_dump(self, tmp_path):
        # The codebook hex is spliced in, not dumped; the bytes must be those
        # of json.dumps over the whole payload, quotes and non-ASCII included.
        model, _ = _toy_model(seed=5, rows=3, cols=4)
        model.classes = ['say "hi"', "caf\u00e9"]
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["grid"]["codebook"] == model.grid.codebook.tobytes().hex()
        plain = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_bytes() == plain.encode()

    def test_integer_and_string_labels_survive(self, tmp_path):
        params = PreprocessParams(frames=8, window=2)
        grid = SomGrid(rows=1, cols=2, codebook=np.zeros((2, params.feature_dim(1))))
        model = ClassModel(grid, [2, "wave"], np.array([[1.0, 0.0], [0.0, 1.0]]),
                           params, joint_count=1)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).classes == [2, "wave"]

    def test_unsupported_version_fails(self, tmp_path):
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = "999"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_format_1_file_names_both_versions(self, tmp_path):
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = "1"
        payload["grid"]["codebook"] = model.grid.codebook.tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"version '1' \(this build reads '2'\); re-create"):
            load_model(path)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(codebook=st.integers(1, 3).flatmap(lambda units: hnp.arrays(
        np.float64, (units, 3), elements=st.floats(allow_nan=False, allow_infinity=False))))
    @example(codebook=np.array([[-0.0, 5e-324, -2.2250738585072014e-308],
                                [1.7976931348623157e308, -1.7976931348623157e308, 0.0]]))
    def test_codebook_bits_round_trip(self, tmp_path, codebook):
        params = PreprocessParams(frames=4, window=1)
        units = codebook.shape[0]
        model = ClassModel(SomGrid(rows=1, cols=units, codebook=codebook), ["a"],
                           np.ones((units, 1)), params, joint_count=1)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path).grid.codebook
        assert loaded.tobytes() == codebook.tobytes()
        assert loaded.flags.writeable and loaded.flags.c_contiguous
        assert loaded.dtype == np.float64

    @pytest.mark.parametrize("edit", [
        lambda hex_: hex_[:-16],  # truncated by one value
        lambda hex_: hex_[:-1],  # odd length
        lambda hex_: "g" + hex_[1:],  # not hex
        lambda hex_: hex_ + "00" * 8,  # one value too many
    ], ids=["truncated", "odd-length", "non-hex", "wrong-length"])
    def test_bad_codebook_string_names_codebook(self, tmp_path, edit):
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["grid"]["codebook"] = edit(payload["grid"]["codebook"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"field 'grid\.codebook'"):
            load_model(path)

    @pytest.mark.parametrize("case", list(_SPLICE_CASES))
    def test_spliced_load_gives_what_the_whole_file_parse_gives(self, tmp_path, case):
        edit, spliced = _SPLICE_CASES[case]
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_text(edit(path.read_text()))
        assert _load_outcome(path) == _whole_file_outcome(path)
        assert (classifier_module._spliced_payload(path.read_bytes()) is not None) == spliced

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_spliced_load_of_an_edited_file_gives_the_whole_file_parse(self, tmp_path, data):
        # One snippet inserted anywhere in a saved file, or one character
        # deleted: the same model or the same error either way.
        model, _ = _toy_model(rows=1, cols=2)
        path = tmp_path / "m.json"
        save_model(model, path)
        text = path.read_text()
        at = data.draw(st.integers(0, len(text)))
        snippet = data.draw(st.sampled_from(_SPLICE_SNIPPETS))
        cut = data.draw(st.integers(0, 1))
        path.write_text(text[:at] + snippet + text[at + cut:])
        assert _load_outcome(path) == _whole_file_outcome(path)

    def test_file_bytes_match_the_pinned_digest(self, tmp_path):
        # Fails on any change of key order, separators, codebook byte order
        # or float formatting; bump MODEL_FORMAT_VERSION with such a change.
        params = PreprocessParams(frames=4, window=1)
        codebook = np.array([[0.1, -0.0, 5e-324], [1e300, -2.5, 3.0]])
        model = ClassModel(SomGrid(rows=1, cols=2, codebook=codebook), [0, "b"],
                           np.array([[1.0, 0.0], [0.25, 0.75]]), params, joint_count=1)
        path = tmp_path / "m.json"
        save_model(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "17f8b9eeb0c1d238176730ebcc31c89ec131a0441de78f42b5f2cb8de3da87cb"

    def test_corrupted_probability_rows_fail_validation(self, tmp_path):
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["cluster_class_probs"][0] = [0.4, 0.4]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="row"):
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
