"""Statistics the benchmark derives from its samples and spans.

Pure functions with no dependence on the library, so the self-tests can
pin them down on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> dict:
    """The highest percentile that still has ``beyond`` samples above it.

    With N sorted samples that is the (N - beyond)-th smallest, the
    100 * (N - beyond) / N percentile.  With N <= beyond no percentile
    qualifies; the maximum is returned with ``beyond`` set to 0 so the
    report shows that the tail rests on too few samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return {"value": xs[-1], "percentile": 100.0, "samples": n, "beyond": 0}
    return {
        "value": xs[n - beyond - 1],
        "percentile": 100.0 * (n - beyond) / n,
        "samples": n,
        "beyond": beyond,
    }


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` are dicts with ``start``, ``end`` and ``parent`` (index of the
    parent span in the same list, or None).  Child intervals are clipped to
    the parent, and overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        p = s["parent"]
        if p is not None:
            lo, hi = spans[p]["start"], spans[p]["end"]
            children.setdefault(p, []).append((max(s["start"], lo), min(s["end"], hi)))
    out = []
    for i, s in enumerate(spans):
        busy = covered([iv for iv in children.get(i, []) if iv[1] > iv[0]])
        out.append((s["end"] - s["start"]) - busy)
    return out


def interval_hits(value: float, bound: float | None, ref: float, tol: float,
                  t0: float = 1.0) -> bool:
    """True when value +- bound meets ref +- tol.

    An unknown bound (None) is an interval over the whole line.  For
    t0 != 1 the function is defined only up to integer powers of t0, so
    the reference is first scaled by the power of t0 nearest the value.
    """
    if bound is None:
        return True
    if not (math.isfinite(value) and math.isfinite(bound)):
        return False
    if t0 != 1.0 and value > 0.0 and ref > 0.0:
        k = round(math.log(value / ref) / math.log(t0))
        ref, tol = ref * t0**k, tol * t0**k
    return abs(value - ref) <= bound + tol


def bound_rel(value: float, bound: float | None) -> float:
    """error_bound / |value|, with an unknown bound counted as +inf."""
    if bound is None:
        return math.inf
    return bound / abs(value) if value else math.inf
