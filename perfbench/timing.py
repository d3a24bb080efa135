"""Timing summary shared by run.py and the tracer (no numpy, no nngp)."""

import statistics


def summary(samples) -> dict:
    """Median, the highest percentile with at least ten samples above it, and n."""
    values = sorted(float(v) for v in samples)
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None,
           "p_high": None}
    if n > 10:
        # the k-th smallest value (1-based) has n - k samples above it
        k = n - 10
        out["p_high"] = {"percentile": 100.0 * k / n, "value": values[k - 1]}
    return out
