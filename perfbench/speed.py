"""Reference kernel for speed-normalised timings.

The machines this benchmark runs on are shared: over a 30-second run the
speed of the same op drifts by 20% and more, in phases lasting seconds. A
fixed piece of pure-Python work with a similar instruction mix slows down by
nearly the same factor at the same moment. So the benchmark times this
kernel next to every op and reports each op's wall time rescaled to a
machine on which the kernel takes exactly ``NOMINAL_S`` seconds. The raw
wall times are printed too.
"""
from __future__ import annotations

import hashlib
import math
import random
import time
from datetime import datetime

NOMINAL_S = 0.02


_GAPS = tuple(float((i * 7919) % 1000) for i in range(300))


def kernel() -> float:
    """Fixed work in three parts of about equal time, each with the
    instruction mix of one workload's dominant layer: CSV-like splitting,
    ISO timestamp parsing and dict counting (ingest); window counts over a
    list of gaps (empirical priors); SHA-256 keyed RNG seeding and a Laplace
    transform (noise streams)."""
    counts: dict[tuple[str, str], int] = {}
    acc = 0.0
    for i in range(2000):
        case, activity, stamp = f"c{i:06d},act_{i % 40:02d},2021-03-04T05:{i % 60:02d}:07.{i:06d}Z".split(",")
        counts[(case, activity)] = counts.get((case, activity), 0) + 1
        acc += datetime.fromisoformat(stamp.replace("Z", "+00:00")).microsecond
    for t in _GAPS:
        acc += sum(1 for v in _GAPS if abs(v - t) <= 250.0)
    for i in range(600):
        digest = hashlib.sha256()
        for part in (str(i), "act_01", "act_02"):
            raw = part.encode()
            digest.update(len(raw).to_bytes(4, "big"))
            digest.update(raw)
        u = random.Random(int.from_bytes(digest.digest()[:8], "big")).random() - 0.5
        acc += math.log(1.0 - 2.0 * abs(u))
    return acc + len(counts)


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def normalised(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_seconds``,
    rescaled to a machine on which it takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / kernel_seconds
