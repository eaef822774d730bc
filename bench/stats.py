"""Summary statistics used by the harness."""

from __future__ import annotations

import hashlib
import json
import math
import statistics

MIN_BEYOND = 10  # samples a reported percentile must have above it


def samples_beyond(n, q):
    """Samples above the nearest-rank ``q``-th percentile of ``n`` samples."""
    return n - math.ceil(n * q / 100)


def percentile(values, q):
    """Nearest-rank percentile; ValueError unless MIN_BEYOND samples lie
    above it."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q} of {n} samples has {max(samples_beyond(n, q), 0)} beyond it, "
            f"needs {MIN_BEYOND}")
    return sorted(values)[max(math.ceil(n * q / 100), 1) - 1]


def growth_exponent(terms, times):
    """Least-squares slope of log(time) against log(terms)."""
    if len(terms) < 2:
        raise ValueError("a growth exponent needs at least two rungs")
    xs = [math.log(t) for t in terms]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if not sxx:
        raise ValueError("all rungs have the same number of terms")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def relative_iqr(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def digest(obj):
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
