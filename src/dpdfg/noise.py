"""Laplace noise generation with deterministic per-edge substreams, query
sensitivities, and positivity post-processing of released weights.

A stream is keyed by ``(seed, source, target, run)``: each part as UTF-8
bytes, preceded by its length as 4 big-endian bytes. Draw ``i`` of a stream
is the SHA-256 of that key followed by ``i`` as 8 big-endian bytes. The
digest's first 52 bits are an integer ``k``, and the uniform is
``u = (2k+1)·2**-53 - 1/2``: exact in binary64, symmetric about 0 (``k`` and
``2**52-1-k`` give ``u`` and ``-u``), and never 0 or ±1/2, so no draw is
ever retried. Version 0.1.x seeded a Mersenne Twister from the key's digest
instead, so the same seed gave different noise there.

``NoiseStream``, ``sample_laplace`` and ``post_process`` are the reference
definitions. A release uses their list forms with the same bits:
``unit_laplace_column`` draws one edge's runs at a time, and
``post_process_column`` post-processes one run's row of edges. Run ``i``'s
part of the key, with the counter of its first draw, is the same for every
edge, so ``_run_suffix`` builds it once per process and caches it.
``post_process_column`` rounds a frequency row by float floor division,
``(v + 0.5) // 1.0``, which is exact for finite values, so it gives
``post_process``'s bits without an integer round trip; a row with a value
that is not finite is post-processed value by value, so it raises
``post_process``'s first error.
"""
from __future__ import annotations

import functools
import hashlib
import math

from .dfg import AggregationKind

TIME_FLOOR = 1e-3

DEFAULT_SEED = 20200510
SEED_ENV_VAR = "DPDFG_SEED"

# The counter of a stream's first draw, as 8 big-endian bytes.
FIRST_DRAW = bytes(8)


def sensitivity(kind: AggregationKind, occurrence_count: int) -> float:
    """Global sensitivity of the aggregation: 1 for count/sum/min/max
    (w.r.t. the time attribute for time aggregations), 1/n for the average.
    """
    if occurrence_count < 1:
        raise ValueError(f"occurrence count must be >= 1, got {occurrence_count}")
    if kind is AggregationKind.AVG:
        return 1.0 / occurrence_count
    return 1.0


def uniform_from_digest(digest: bytes) -> float:
    """The uniform of one draw's SHA-256 ``digest``: its first 52 bits as
    ``k``, then ``(2k+1)·2**-53 - 1/2``, in the open interval (-1/2, 1/2)."""
    k = int.from_bytes(digest[:7], "big") >> 4
    return (2 * k + 1) * 2.0**-53 - 0.5


def _stream_key(*parts) -> bytes:
    """Each part's text as UTF-8 bytes, preceded by its length as 4 big-endian bytes."""
    key = b""
    for part in parts:
        raw = str(part).encode("utf-8")
        key += len(raw).to_bytes(4, "big") + raw
    return key


@functools.cache
def _run_suffix(run: int) -> bytes:
    """The key suffix of run ``run``'s first draw, shared by every edge."""
    return _stream_key(run) + FIRST_DRAW


class NoiseStream:
    """Uniform stream keyed by (root seed, edge, run index).

    The key is hashed with SHA-256 so the same key yields the same noise no
    matter in which order edges are processed.
    """

    def __init__(self, root_seed: int, source: str, target: str, run_index: int = 0):
        self._key = hashlib.sha256(_stream_key(root_seed, source, target, run_index))
        self._count = 0

    def next_uniform(self) -> float:
        """Draw ``i``, counting from 0: ``uniform_from_digest`` of the
        SHA-256 of the key followed by ``i`` as 8 big-endian bytes."""
        digest = self._key.copy()
        digest.update(self._count.to_bytes(8, "big"))
        self._count += 1
        return uniform_from_digest(digest.digest())


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


def unit_laplace_column(root_seed: int, source: str, target: str, runs: int) -> list[float]:
    """``sample_laplace(1.0, NoiseStream(root_seed, source, target, run))``
    for each ``run`` in ``range(runs)``, bit for bit.

    The ``(root_seed, source, target)`` part of the key is hashed once; each
    run copies that digest and adds its cached suffix: its own index and
    the counter of the stream's first draw, 0.
    """
    prefix = hashlib.sha256(_stream_key(root_seed, source, target))
    column: list[float] = []
    for run in range(runs):
        digest = prefix.copy()
        digest.update(_run_suffix(run))
        u = uniform_from_digest(digest.digest())
        column.append(-1.0 * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u)))
    return column


def post_process(noisy: float, kind: AggregationKind) -> float:
    """Make a noisy weight publishable: frequencies become integers >= 1,
    time weights are clamped to a small positive floor. Value-independent,
    so the DP guarantee is preserved.
    """
    if kind is AggregationKind.FREQUENCY:
        return float(max(1, math.floor(noisy + 0.5)))
    return max(TIME_FLOOR, noisy)


def post_process_column(values: list[float], kind: AggregationKind) -> list[float]:
    """``post_process`` of each value, with the branch taken once per list.
    ``v if v > TIME_FLOOR else TIME_FLOOR`` is ``max(TIME_FLOOR, v)``, NaN
    included. For a finite ``v``, ``(v + 0.5) // 1.0`` is
    ``math.floor(v + 0.5)`` as a float, exactly; the sum of a row is finite
    unless a value is not (or the sum overflows), and such a row takes
    ``post_process`` value by value, which raises its first error."""
    if kind is AggregationKind.FREQUENCY:
        if not math.isfinite(sum(values)):
            return [post_process(v, kind) for v in values]
        return [f if (f := (v + 0.5) // 1.0) > 1.0 else 1.0 for v in values]
    return [v if v > TIME_FLOOR else TIME_FLOOR for v in values]
