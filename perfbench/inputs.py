"""The benchmark's inputs, each a pure function of the workload seed.

Every stream draws from its own ``SeedSequence(seed, spawn_key=...)``
child, so changing one stream (say, a level's draws) never reshuffles
another (the corpus).
"""

from __future__ import annotations

import numpy as np

import spec

_CORPUS, _DRAWS, _ZIPF_ORDER = range(3)
#: The draws stream of the warm-up; level ``k`` of round ``r`` uses
#: ``1 + r * len(LEVELS) + k``.
WARMUP_STREAM = 0
#: Draws per level; the generator wraps around past this.
DRAWS_PER_LEVEL = 1 << 17


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def corpus(seed: int) -> np.ndarray:
    """``(CORPUS_SIZE, 3, 32, 32)`` float32 signs, all distinct.

    Sign class, rotation, scale, centre jitter and additive noise vary
    per image, so the qualifier's labelling and contour trace see
    varied outlines.
    """
    from repro.data import render_sign
    from repro.data.signs import SIGN_CLASSES

    rng = _rng(seed, _CORPUS)
    n = spec.CORPUS_SIZE
    classes = rng.integers(0, len(SIGN_CLASSES), n)
    rotations = rng.uniform(-0.5, 0.5, n)
    scales = rng.uniform(0.55, 0.95, n)
    jitters = rng.uniform(-2.0, 2.0, (n, 2))
    noise_levels = rng.uniform(0.0, 0.04, n)
    images = np.empty((n, 3, spec.IMAGE_SIZE, spec.IMAGE_SIZE), np.float32)
    for i in range(n):
        sign = render_sign(
            int(classes[i]), size=spec.IMAGE_SIZE, rotation=rotations[i],
            scale=scales[i], center_jitter=tuple(jitters[i]),
        )
        noise = rng.normal(0.0, noise_levels[i], sign.shape)
        images[i] = np.clip(sign + noise, 0.0, 1.0)
    distinct = {image.tobytes() for image in images}
    if len(distinct) != n:
        raise ValueError(f"corpus has {n - len(distinct)} duplicate images")
    return images


def zipf_probabilities(n: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return weights / weights.sum()


def draws(seed: int, stream: int, zipf: bool) -> np.ndarray:
    """Corpus indices for one closed-loop phase.

    Uniform over the corpus, or Zipf(``ZIPF_S``)-ranked with the rank
    order a seeded permutation of the corpus (the same order for every
    phase of a run, so the hot set is shared between phases).
    """
    rng = _rng(seed, _DRAWS, stream)
    n = spec.CORPUS_SIZE
    if not zipf:
        return rng.integers(0, n, DRAWS_PER_LEVEL)
    order = _rng(seed, _ZIPF_ORDER).permutation(n)
    ranks = rng.choice(
        n, DRAWS_PER_LEVEL, p=zipf_probabilities(n, spec.ZIPF_S)
    )
    return order[ranks]


def level_lengths(seconds: float) -> dict[str, float]:
    """Measured seconds per level and round, split by ``SHARES`` (each
    is preceded by ``SETTLE_S``)."""
    measured = (seconds / spec.ROUNDS - len(spec.LEVELS) * spec.SETTLE_S)
    if measured <= 0:
        raise ValueError(f"--seconds {seconds} leaves no measured time")
    return {lv: measured * spec.SHARES[lv] for lv in spec.LEVELS}


def level_stream(round_: int, k: int) -> int:
    """The draws stream of level ``k`` in round ``round_``."""
    return 1 + round_ * len(spec.LEVELS) + k
