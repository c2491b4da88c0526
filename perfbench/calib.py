"""Host speed reference for the benchmark's end-to-end times.

The benchmark runs on a share of a host whose speed is not its own: on a
2-vCPU Intel Xeon VM the same fixed Python loop took anywhere from 0.09 to
0.18 s within one minute, in phases of seconds to tens of minutes, and the
guest sees no steal time for it (CPU time grows with wall time). Raw medians
of two sets of runs of the same code then differ by a third.

So every run also times a fixed reference work right before and right
after each timed operation or set-up sample, outside the timed part, and reports that
operation at reference speed: ``wall * REFERENCE_S / reference``, where
``reference`` is the mean of the reference's durations just before and just
after it. The reference work is framemult-free work of the kinds the
workloads do, in four parts of similar length: small-frame linear algebra
(Gram matrix, solve, eigvalsh, pinv on a 12 x 5 complex frame; mostly
interpreter and numpy call overhead, like verify-small), a sweep of
eigvalsh over 3 x 3 rank-one blocks (like the blockseq sweeps of
examples-sweep), parsing a JSON list of number pairs and an SVD of a
512 x 128 complex matrix (like verify-large), and LAPACK on a 384 x 384
matrix, larger than the core's cache. One BLAS thread, as in the workloads.

On that host, over five 30-second runs each, this took the spread of
verify-small's median from about 0.12 to 0.05 of its value. For the CLI
workloads it cancels slow phases of host load but not bursts shorter than
an operation, so their run-to-run spread stays near 0.1-0.15 either way.
The work does not touch framemult, so a change to the program moves the
reported times and a change in host load does not.
Set-up samples (a fresh interpreter importing framemult.cli) are scaled
the same way; over 96 samples in groups of 12, that took the spread of the
group medians from 0.17 to 0.12.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The reference work's typical duration on the host above (x86_64, Python
# 3.11, numpy 2.4 with OpenBLAS 0.3.31, one BLAS thread), so reported
# seconds read close to the wall seconds measured there.
REFERENCE_S = 0.060

_rng = np.random.default_rng(0)
_FRAME = _rng.standard_normal((12, 5)) + 1j * _rng.standard_normal((12, 5))
_EYE = np.eye(12)
_TEMPLATE = _rng.standard_normal((3, 1)) + 1j * _rng.standard_normal((3, 1))
_PAIRS = json.dumps(_rng.standard_normal((8000, 2)).tolist())
_TALL = _rng.standard_normal((512, 128)) + 1j * _rng.standard_normal((512, 128))
_SQUARE = _rng.standard_normal((384, 384))


def reference() -> float:
    """Seconds the fixed reference work takes right now."""
    started = time.perf_counter()
    for _ in range(200):
        gram = _FRAME.conj().T @ _FRAME
        dual = np.linalg.solve(gram, _FRAME.conj().T)
        np.linalg.norm(_FRAME @ dual - _EYE)
        np.linalg.eigvalsh(gram)
        np.linalg.pinv(_FRAME)
    low, high = np.inf, 0.0  # running extremes, as blockseq.system_frame_bounds keeps them
    for k in range(1, 900):
        block = _TEMPLATE / k
        gram = block @ np.conj(block.T)
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        low, high = min(low, float(eigs[0])), max(high, float(eigs[-1]))
    json.loads(_PAIRS)
    np.linalg.svd(_TALL, compute_uv=False)
    np.linalg.svd(_SQUARE, compute_uv=False)
    return time.perf_counter() - started


def sample(seconds: float = 0.0) -> float:
    """Median duration of the reference work, run at least once and for about ``seconds``."""
    until = time.perf_counter() + seconds
    samples = [reference()]
    while time.perf_counter() < until:
        samples.append(reference())
    return statistics.median(samples)


def at_reference_speed(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` scaled by the reference work's durations just before and after it."""
    return wall_s * REFERENCE_S * 2.0 / (before + after)
