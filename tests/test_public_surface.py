"""The package root's public names, and the README paragraph that lists them."""

import re
from pathlib import Path

import numpy as np
import pytest

import dam

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(set(dam.__all__)) == len(dam.__all__)
    missing = [name for name in dam.__all__ if not hasattr(dam, name)]
    assert missing == []


def test_the_readme_lists_only_exported_lower_level_pieces():
    text = README.read_text()
    start = text.index("Lower-level pieces")
    # Backticked identifiers; `demos/` is a path.
    names = re.findall(r"`([A-Za-z_]\w*)`", text[start:text.index("\n\n", start)])
    assert "score_actions" in names
    assert [name for name in names if name not in dam.__all__] == []


def test_the_deleted_scoring_helpers_are_gone():
    for name in ("Histogram", "compute_histogram", "class_posterior"):
        assert name not in dam.__all__
        assert not hasattr(dam, name)


def _model():
    grid = dam.SomGrid(1, 2, np.zeros((2, 3)))
    return dam.ClassModel(grid, ["a", "b"], np.eye(2), dam.PreprocessParams(frames=4, window=1),
                          joint_count=1)


def _run_result():
    return dam.RunResult(run_index=0, seed=1, classes=("a", "b"), accuracy=1.0,
                         confusion=np.eye(2, dtype=np.int64), prob_matrix=np.eye(2),
                         subject_accuracy={2: 1.0}, train_subjects=(1,), test_subjects=(2,),
                         model=_model())


# Each call builds a new instance equal in value to the last.
_ARRAY_HOLDERS = {
    "SomGrid": lambda: dam.SomGrid(1, 2, np.zeros((2, 3))),
    "ClassModel": _model,
    "Posterior": lambda: dam.Posterior(("a", "b"), np.array([1.0, 2.0])),
    "Action": lambda: dam.Action("x", 1, 0, np.zeros((3, 2, 3))),
    "RunResult": _run_result,
    "AggregateResult": lambda: dam.AggregateResult(
        protocol="loso", classes=("a", "b"), run_results=[_run_result()], mean_accuracy=1.0,
        std_accuracy=0.0, mean_confusion=np.eye(2), mean_prob_matrix=np.eye(2),
        subject_accuracy={2: 1.0}),
}


@pytest.mark.parametrize("make", _ARRAY_HOLDERS.values(), ids=_ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert a == a
    assert hash(a) == hash(a)
    assert {a, b} == {b, a} and len({a, b}) == 2
