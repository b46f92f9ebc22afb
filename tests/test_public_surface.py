"""The package root's public names, and the README paragraph that lists them."""

import re
from pathlib import Path

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
