"""Workload shapes of the benchmark, as plain data.

Kept free of numpy so that `run.py` can fix the BLAS thread count from a
workload's `jobs` before numpy is first imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
SIZES = ("paper", "smoke")

# Scratch space of runs, at the checkout root; each run's full record is kept
# under results/.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_work"

# Each run sets up this many times and reports the median, so that one slow
# file-system flush does not decide `setup_s`.
SETUP_REPEATS = 3

# The held-out corpus of `classify_stream` comes from another seed than the
# training corpus, so no held-out action repeats a training one.
HELDOUT_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Corpus:
    """Arguments of one `dam.synthetic` generator call."""

    kind: str  # "directional" or "ordered"
    classes: int
    subjects: int
    instances: int
    raw_frames: int
    joints: int

    @property
    def actions(self) -> int:
        return self.classes * self.subjects * self.instances


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: Corpus  # evaluated corpus; for classify_stream, the training corpus
    frames: int
    window: int
    rows: int
    cols: int
    epochs: int
    jobs: int
    protocol: str | None = None  # `dam evaluate --protocol`; None means classify
    runs: int = 1
    heldout: Corpus | None = None  # classify_stream only
    batch_files: int = 0  # classify_stream: held-out files per `dam classify` call

    def settings_argv(self) -> list[str]:
        return [
            "--frames", str(self.frames), "--window", str(self.window),
            "--grid", f"{self.rows}x{self.cols}", "--epochs", str(self.epochs),
        ]


WHY = {
    "cv_paper": (
        "paper-scale cross-subject run (6.6k training vectors of dim 180, 25x25 map), "
        "where online SOM training and bulk BMU search do most of the work"
    ),
    "loso_jobs2": (
        "cheap 8x8 SOM over 8 LOSO folds on 2 worker processes, so preprocessing, "
        "task pickling and the parallel path dominate; accuracy below ceiling"
    ),
    "classify_stream": (
        "closed-loop per-file classification interleaved with `dam classify` calls on "
        "12-file chunks, pre-trained 25x25 model: small BMU batches, no SOM training timed"
    ),
}


def _paper() -> dict[str, Workload]:
    return {
        "cv_paper": Workload(
            "cv_paper", WHY["cv_paper"],
            corpus=Corpus("directional", 6, 10, 10, 45, 20),
            frames=25, window=3, rows=25, cols=25, epochs=2, jobs=1,
            protocol="cross-subject", runs=1,
        ),
        "loso_jobs2": Workload(
            "loso_jobs2", WHY["loso_jobs2"],
            corpus=Corpus("ordered", 4, 8, 4, 45, 20),
            frames=25, window=3, rows=8, cols=8, epochs=6, jobs=2,
            protocol="loso",
        ),
        "classify_stream": Workload(
            "classify_stream", WHY["classify_stream"],
            corpus=Corpus("directional", 6, 1, 8, 45, 20),
            frames=25, window=3, rows=25, cols=25, epochs=2, jobs=1,
            heldout=Corpus("directional", 6, 8, 7, 45, 20), batch_files=12,
        ),
    }


def _smoke() -> dict[str, Workload]:
    return {
        "cv_paper": Workload(
            "cv_paper", WHY["cv_paper"],
            corpus=Corpus("directional", 3, 4, 3, 20, 4),
            frames=10, window=3, rows=4, cols=4, epochs=2, jobs=1,
            protocol="cross-subject", runs=1,
        ),
        "loso_jobs2": Workload(
            "loso_jobs2", WHY["loso_jobs2"],
            corpus=Corpus("ordered", 3, 3, 3, 20, 4),
            frames=10, window=3, rows=3, cols=3, epochs=2, jobs=2,
            protocol="loso",
        ),
        "classify_stream": Workload(
            "classify_stream", WHY["classify_stream"],
            corpus=Corpus("directional", 3, 2, 3, 20, 4),
            frames=10, window=3, rows=4, cols=4, epochs=2, jobs=1,
            heldout=Corpus("directional", 3, 2, 4, 20, 4), batch_files=6,
        ),
    }


SPECS = {"paper": _paper(), "smoke": _smoke()}
WORKLOADS = tuple(SPECS["paper"])


def result_path(workload: str, size: str, seed: int, trace: int) -> Path:
    return WORK_DIR / "results" / f"{workload}-{size}-seed{seed}-trace{trace}.json"
