"""Synthetic action corpora with controlled direction structure.

Two generators used by the test suite and the demo scripts:

* `make_directional_dataset` — each class moves every joint inside its own
  cone of directions, so the classes occupy disjoint regions of direction
  space and any sane configuration should separate them perfectly.
* `make_ordered_dataset` — all classes share the same multiset of movement
  segments and differ only in segment order, so single-step direction
  statistics cannot tell them apart, but multi-step windows can.
"""

from __future__ import annotations

import numpy as np

from .dataset import Action, Dataset

# +x, +y, +z, -x, -y, -z: mutually non-overlapping direction cones.
_AXES = np.vstack([np.eye(3), -np.eye(3)])


def _instance_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _jittered(rng, directions: np.ndarray, jitter: float) -> np.ndarray:
    """Tilt each step direction inside a cone around its base direction.

    The result rows are renormalized to unit length, so `jitter` controls the
    cone's opening angle, not the step size. This is what makes a class a
    direction *vocabulary* (a region of direction space) rather than one
    knife-edge vector that every instance repeats identically.
    """
    if jitter <= 0.0:
        return directions
    tilted = directions + jitter * rng.normal(size=directions.shape)
    return tilted / np.linalg.norm(tilted, axis=1, keepdims=True)


def _walk(rng, directions: np.ndarray, joints: int, noise: float) -> np.ndarray:
    """Positions of `joints` joints following per-step unit directions.

    Each joint gets its own speed profile and start offset; `noise` adds a
    small isotropic wobble on top of every step.
    """
    steps = directions.shape[0]
    speeds = rng.uniform(0.5, 1.5, size=(steps, joints, 1))
    wobble = noise * rng.normal(size=(steps, joints, 3))
    deltas = speeds * directions[:, None, :] + wobble
    start = rng.uniform(-5.0, 5.0, size=(1, joints, 3))
    return start + np.concatenate([np.zeros((1, joints, 3)), np.cumsum(deltas, axis=0)])


def _corpus(prefix: str, bases, subjects: int, instances: int, joints: int, seed: int,
            noise: float, direction_jitter: float) -> Dataset:
    """Instance i of subject s in class c walks jittered `bases[c]` with its own generator."""
    actions = []
    for c, base in enumerate(bases):
        for s in range(subjects):
            for i in range(instances):
                rng = _instance_rng(seed, c, s, i)
                directions = _jittered(rng, base, direction_jitter)
                actions.append(Action(f"{prefix}{c}_s{s:02d}_i{i:02d}", s + 1, c,
                                      _walk(rng, directions, joints, noise)))
    return Dataset(actions)


def make_directional_dataset(
    classes: int = 3,
    subjects: int = 10,
    instances: int = 10,
    raw_frames: int = 40,
    joints: int = 4,
    seed: int = 0,
    noise: float = 0.01,
    direction_jitter: float = 0.2,
) -> Dataset:
    """Classes with disjoint direction vocabularies (one cone per class).

    Class c moves inside a cone around axis `_AXES[c]`; the cones of
    different classes do not overlap, so the classes are separable from
    movement directions alone while still showing realistic within-class
    variation.
    """
    if not 1 <= classes <= len(_AXES):
        raise ValueError(f"classes must be in [1, {len(_AXES)}], got {classes}")
    bases = [np.tile(_AXES[c], (raw_frames - 1, 1)) for c in range(classes)]
    return _corpus("c", bases, subjects, instances, joints, seed, noise, direction_jitter)


def make_ordered_dataset(
    classes: int = 2,
    subjects: int = 10,
    instances: int = 10,
    raw_frames: int = 40,
    joints: int = 4,
    seed: int = 0,
    noise: float = 0.01,
    direction_jitter: float = 0.2,
) -> Dataset:
    """Classes that differ only in the order of identical movement segments.

    The segment list is the first max(2, classes) coordinate axes; class c
    performs it rotated by c positions. Every class therefore spends the same
    number of steps moving in each direction.
    """
    n_segments = max(2, classes)
    if classes < 2 or n_segments > len(_AXES):
        raise ValueError(f"classes must be in [2, {len(_AXES)}], got {classes}")
    lengths = np.diff(np.linspace(0, raw_frames - 1, n_segments + 1).astype(int))
    bases = [np.repeat(np.roll(_AXES[:n_segments], -c, axis=0), lengths, axis=0)
             for c in range(classes)]
    return _corpus("o", bases, subjects, instances, joints, seed, noise, direction_jitter)
