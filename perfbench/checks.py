"""Output checks of the benchmark.

Each check is one comparison; `Checks` counts them and the failures, which
feed `attempted`, `failed` and `success_rate`. The oracles are naive on
purpose (a linear scan per query), so the program is compared against
independent code, not against itself.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


class Checks:
    """Tally of checks and operations attempted and failed, with messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(directory: Path) -> str:
    """One digest over the names and bytes of every file in `directory`."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_digests(checks: Checks, size: str, workload: str, actual: dict[str, str]) -> None:
    """Compare output digests with those recorded for the default seed.

    An output with no recorded digest is skipped with a note on stderr, so a
    first recording (perfbench/record.py) can run before the file exists.
    """
    recorded = {}
    if DIGESTS_FILE.is_file():
        recorded = json.loads(DIGESTS_FILE.read_text()).get(size, {}).get(workload, {})
    for name, digest in sorted(actual.items()):
        if name not in recorded:
            print(f"note: no recorded digest for {size}/{workload}/{name}", file=sys.stderr)
            continue
        checks.expect(
            digest == recorded[name],
            f"{name}: SHA-256 {digest[:12]} differs from the recorded {recorded[name][:12]}",
        )


def bmu_oracle(codebook: np.ndarray, x: np.ndarray) -> int:
    """Linear scan for the nearest unit; exact ties keep the lowest index."""
    best, best_distance = 0, None
    for i, center in enumerate(codebook):
        distance = float(((center - x) ** 2).sum())
        if best_distance is None or distance < best_distance:
            best, best_distance = i, distance
    return best


def tie_codebook(vectors: np.ndarray, units: int, rng: np.random.Generator) -> tuple:
    """A codebook drawn from `vectors`, with some rows copied to later units.

    Returns (codebook, tie_queries): every tie query equals a duplicated row
    exactly, so its true winner is the lowest index holding that row.
    """
    codebook = vectors[rng.choice(len(vectors), size=units, replace=len(vectors) < units)].copy()
    copies = max(1, units // 16)
    # Ascending, so every copied row is final before it is copied.
    targets = np.sort(rng.choice(np.arange(1, units), size=min(copies, units - 1), replace=False))
    for t in targets:
        codebook[t] = codebook[rng.integers(0, t)]
    return codebook, codebook[targets]


def check_bmus(checks: Checks, dam, codebook: np.ndarray, rows: int, cols: int,
               queries: np.ndarray, what: str) -> None:
    """`dam.bmu_batch` against the oracle, one check per query, and `dam.bmu`
    on every eighth query."""
    grid = dam.SomGrid(rows, cols, codebook)
    got = dam.bmu_batch(grid, queries)
    for i, x in enumerate(queries):
        want = bmu_oracle(codebook, x)
        checks.expect(int(got[i]) == want,
                      f"{what}: bmu_batch gave query {i} unit {int(got[i])}, oracle {want}")
        if i % 8 == 0:
            checks.expect(dam.bmu(grid, x) == want, f"{what}: bmu disagrees on query {i}")
