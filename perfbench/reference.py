"""A fixed reference computation that does not use nngp.

run.py reports each operation's wall time divided by the time of this
computation measured right before and right after it in the same process.
The host's speed drifts by tens of percent over seconds to minutes; both
times drift together, so the ratio is steady where the raw wall time is not.
The parts follow what the workloads spend their time on, each about a
quarter of a chunk: FFTs on a table-sized array (table builds), a gather
from a small table streamed over a large index array (kernel layers),
normal draws and tanh (Monte Carlo), and an interpreter loop (small calls).
Elementwise exp and a BLAS product were left out: their times varied from
run to run more than the workloads' did, so they made the ratio noisier.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CHUNKS = 7

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((250, 1001))
_STREAM = _RNG.random(750_000)
_TABLE = _RNG.random(250_000)
_INDEX = (_STREAM * (_TABLE.size - 1)).astype(np.intp)
_GATHERED = np.empty_like(_STREAM)
_DRAWS = np.random.default_rng(1)


def _work() -> float:
    # the FFTs, the buffered take and the draws allocate megabytes per call,
    # as the workloads do: page-fault cost drifts too, and a version with
    # preallocated buffers tracked the workloads less well
    f = np.fft.rfft(_X, n=2048, axis=1)
    acc = float(np.fft.irfft(f * f, n=2048, axis=1)[:, 0].sum())
    np.take(_TABLE, _INDEX, out=_GATHERED)
    np.multiply(_GATHERED, _STREAM, out=_GATHERED)
    acc += float(_GATHERED[0])
    acc += float(np.tanh(_DRAWS.standard_normal(300_000))[0])
    s = 0
    for i in range(90_000):
        s += i & 7
    return acc + s


def timed() -> float:
    """Median wall time of CHUNKS runs of the reference work, in seconds.

    The median drops the first chunk's wake-up cost (page faults, caches)
    after an operation has run.
    """
    times = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
