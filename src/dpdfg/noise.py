"""Laplace noise generation with deterministic per-edge substreams, query
sensitivities, and positivity post-processing of released weights.
"""
from __future__ import annotations

import hashlib
import math
import random

from .dfg import AggregationKind

TIME_FLOOR = 1e-3

DEFAULT_SEED = 20200510
SEED_ENV_VAR = "DPDFG_SEED"


def sensitivity(kind: AggregationKind, occurrence_count: int) -> float:
    """Global sensitivity of the aggregation: 1 for count/sum/min/max
    (w.r.t. the time attribute for time aggregations), 1/n for the average.
    """
    if occurrence_count < 1:
        raise ValueError(f"occurrence count must be >= 1, got {occurrence_count}")
    if kind is AggregationKind.AVG:
        return 1.0 / occurrence_count
    return 1.0


class NoiseStream:
    """Uniform stream keyed by (root seed, edge, run index).

    The key is hashed with SHA-256 so the same key yields the same noise no
    matter in which order edges are processed.
    """

    def __init__(self, root_seed: int, source: str, target: str, run_index: int = 0):
        digest = hashlib.sha256()
        for part in (str(root_seed), source, target, str(run_index)):
            raw = part.encode("utf-8")
            digest.update(len(raw).to_bytes(4, "big"))
            digest.update(raw)
        self._rng = random.Random(int.from_bytes(digest.digest()[:8], "big"))

    def next_uniform(self) -> float:
        """Uniform draw in the open interval (-1/2, 1/2)."""
        u = self._rng.random() - 0.5
        while u == -0.5:
            u = self._rng.random() - 0.5
        return u


def sample_laplace(scale: float, stream) -> float:
    """Inverse-CDF Laplace sample with mean 0 and the given scale.

    scale 0 degenerates to the constant 0 (unbounded-epsilon release).
    """
    if scale < 0.0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    if scale == 0.0:
        return 0.0
    u = stream.next_uniform()
    return -scale * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


def post_process(noisy: float, kind: AggregationKind) -> float:
    """Make a noisy weight publishable: frequencies become integers >= 1,
    time weights are clamped to a small positive floor. Value-independent,
    so the DP guarantee is preserved.
    """
    if kind is AggregationKind.FREQUENCY:
        return float(max(1, math.floor(noisy + 0.5)))
    return max(TIME_FLOOR, noisy)

