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


def _edit_line_2(edit):
    """An edit of a model file's text that rewrites the hex between line 2's quotes."""
    def apply(text):
        header, codebook = text.split("\n", 1)
        hex_ = codebook[1:codebook.index('"', 1)]
        return f'{header}\n"{edit(hex_)}"\n'
    return apply


def _first_line(text):
    return text.split("\n", 1)[0]


_NOT_LINE_2 = "line 2 must be the last line and hold the codebook as one quoted hex string"
_NOT_HEX = "the codebook on line 2 is not hex"
_WRONG_SIZE = r"the codebook on line 2 holds \d+ bytes, expected rows \* cols \* dim \* 8 = 384"

# Edits of a saved model file's text, and the error each gives (None: the
# file loads as the saved model).
_LINE_2_CASES = {
    "CRLF copy": (lambda text: text.replace("\n", "\r\n"), None),
    "no final newline": (lambda text: text[:-1], None),
    "trailing whitespace": (lambda text: text + " \t\r\n\n", None),
    "uppercase hex": (_edit_line_2(str.upper), None),
    "line 1 cut short": (lambda text: text[:20] + text[text.index("\n"):],
                         "line 1 is not valid JSON"),
    "no line 2": (_first_line, _NOT_LINE_2),
    "empty line 2": (lambda text: _first_line(text) + "\n", _NOT_LINE_2),
    "line 2 not quoted": (
        lambda text: text.replace('\n"', "\n").replace('"\n', "\n"), _NOT_LINE_2),
    "line 2 not closed": (lambda text: text.replace('"\n', "\n"), _NOT_LINE_2),
    "space before line 2": (lambda text: text.replace('\n"', '\n "'), _NOT_LINE_2),
    "a third line": (lambda text: text + '"00"\n', _NOT_LINE_2),
    "odd-length hex": (_edit_line_2(lambda h: h[:-1]), _NOT_HEX),
    "not hex": (_edit_line_2(lambda h: "g" + h[1:]), _NOT_HEX),
    "hex with a space": (_edit_line_2(lambda h: h[:16] + " " + h[16:]), _NOT_HEX),
    "escaped digit": (_edit_line_2(lambda h: h.replace("0", "\\u0030", 1)), _NOT_HEX),
    "truncated by one value": (_edit_line_2(lambda h: h[:-16]), _WRONG_SIZE),
    "one value too many": (_edit_line_2(lambda h: h + "00" * 8), _WRONG_SIZE),
}

# Text the property test inserts into a model file.
_SNIPPETS = ['"', "\\", " ", "\t", "\r", "\n", "0", "A", "g", ",", ":", "{", "}", "[", "]",
             "NaN", "Infinity", "true", "\\u0030", '"codebook":"00",', '"grid":{', '"",']


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


def _two_line_model(path):
    """The bytes save_model writes for the model in `path` when its first line
    and the rest of the file are each read by `json.loads`; None when that
    reading gives no model."""
    header, _, codebook = path.read_bytes().partition(b"\n")
    try:
        payload = json.loads(header)
        if payload["format_version"] != MODEL_FORMAT_VERSION:
            return None
        model = classifier_module._decode_model(payload, bytes.fromhex(json.loads(codebook)))
    except (ValueError, TypeError, KeyError):
        return None
    again = path.with_name("oracle.json")
    save_model(model, again)
    return again.read_bytes()


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

    def test_file_is_two_canonical_json_lines(self, tmp_path):
        # Line 1 is json.dumps of every field but the codebook, quotes and
        # non-ASCII included; line 2 is the codebook's hex as a JSON string.
        model, _ = _toy_model(seed=5, rows=3, cols=4)
        model.classes = ['say "hi"', "caf\u00e9"]
        path = tmp_path / "m.json"
        save_model(model, path)
        header, codebook, end = path.read_text().split("\n")
        payload = json.loads(header)
        assert payload["classes"] == model.classes
        assert payload["grid"] == {"rows": 3, "cols": 4, "dim": model.grid.dim}
        assert header == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert codebook == json.dumps(model.grid.codebook.tobytes().hex())
        assert end == ""

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

    @pytest.mark.parametrize("version", ["1", "2"])
    def test_format_1_file_names_both_versions(self, tmp_path, version):
        # Format 1 held the codebook as decimals and format 2 as hex, both in
        # one JSON object on one line; either is refused by its version.
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text().split("\n")[0])
        payload["format_version"] = version
        payload["grid"]["codebook"] = (model.grid.codebook.tolist() if version == "1"
                                       else model.grid.codebook.tobytes().hex())
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(str(path))}: unsupported model format version '{version}' "
                r"\(this build reads '3'\); re-create it with `dam train`$")):
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
        assert not loaded.flags.writeable and loaded.flags.c_contiguous and loaded.flags.aligned
        assert loaded.dtype == np.float64

    @pytest.mark.parametrize("case", list(_LINE_2_CASES))
    def test_line_2_holds_the_codebook_or_the_file_is_refused(self, tmp_path, case):
        edit, error = _LINE_2_CASES[case]
        model, _ = _toy_model()
        saved = tmp_path / "saved.json"
        save_model(model, saved)
        path = tmp_path / "m.json"
        path.write_bytes(edit(saved.read_text()).encode())
        if error is None:
            assert _load_outcome(path) == ("model", saved.read_bytes(), True)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}"):
                load_model(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_an_edited_file_gives_its_two_line_model_or_an_error_naming_it(self, tmp_path,
                                                                          data):
        # One snippet inserted anywhere in a saved file, or one character
        # deleted: the loaded model is the one json.loads reads from the two
        # lines, or the error names the file.
        model, _ = _toy_model(rows=1, cols=2)
        path = tmp_path / "m.json"
        save_model(model, path)
        text = path.read_text()
        at = data.draw(st.integers(0, len(text)))
        snippet = data.draw(st.sampled_from(_SNIPPETS))
        cut = data.draw(st.integers(0, 1))
        path.write_bytes((text[:at] + snippet + text[at + cut:]).encode())
        outcome = _load_outcome(path)
        if outcome[0] == "model":
            assert outcome[1:] == (_two_line_model(path), True)
        else:
            assert outcome[1].startswith(f"{path}: ")

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
        assert digest == "96cb610445337cb35f41e6ec4364413bb5a8450daf2e00f7664055f9e55673c2"

    def test_corrupted_probability_rows_fail_validation(self, tmp_path, rewrite_model_payload):
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        rewrite_model_payload(path, lambda p: {
            **p, "cluster_class_probs": [[0.4, 0.4], *p["cluster_class_probs"][1:]]})
        with pytest.raises(ValueError, match="row"):
            load_model(path)

    def test_a_ragged_probability_row_names_the_field_and_its_width(self, tmp_path,
                                                                    rewrite_model_payload):
        # numpy would refuse the ragged table as an "inhomogeneous shape",
        # naming no field.
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        rewrite_model_payload(path, lambda p: {
            **p, "cluster_class_probs": [*p["cluster_class_probs"][:-1], [1.0]]})
        last = model.grid.unit_count - 1
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(str(path))}: field 'cluster_class_probs' row {last} has 1 "
                rf"entries, expected one per class, {len(model.classes)}$")):
            load_model(path)

    @pytest.mark.parametrize("probs", [[True, False], [1, False], ["1.0", "0"]],
                             ids=["bools", "int-and-bool", "strings"])
    def test_probabilities_must_be_json_numbers(self, tmp_path, rewrite_model_payload, probs):
        # numpy reads true/false as 1.0/0.0 and a numeric string as its value;
        # every row here would sum to 1.
        model, _ = _toy_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        rewrite_model_payload(path, lambda p: {
            **p, "cluster_class_probs": [probs] * len(p["cluster_class_probs"])})
        with pytest.raises(ValueError, match=(
                "field 'cluster_class_probs' must be an array of arrays of JSON numbers")):
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
