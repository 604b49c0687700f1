"""Reference kernel that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts. On the 2-vCPU KVM
guest it was sized on, the time of one sweep row differed by a factor of
1.5 between its 10th and 90th percentiles, in spells lasting from seconds
to minutes, so runs of the same code spread by 8 to 34 % between seeds. The benchmark therefore runs
this kernel between points and scales its times to the speed at which the
kernel takes ``REF_S``.

The kernel does not call bellrand, so no change to bellrand can move it. It
mixes the kinds of work bellrand does: interpreted Python, numpy calls on
small arrays, small symmetric eigenproblems, LAPACK on a 256x256 matrix and
memory copies. Over 139 alternations with a level-2 sweep row on that
host, the kernel's time, averaged over five samples, followed the row's
with correlation 0.91 and log-log slope 1.07.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.02  # seconds one kernel pass takes at the reference speed
WARMUP = 3  # the first passes load LAPACK and fault in pages

_rng = np.random.default_rng(0)
_SMALL = [a @ a.T + 13.0 * np.eye(13) for a in _rng.standard_normal((4, 13, 13))]
_BIG = _rng.standard_normal((256, 256))
_BIG = _BIG @ _BIG.T + 256.0 * np.eye(256)
_VEC = _rng.standard_normal(1_000_000)


def sample():
    """Wall time of one pass of the kernel, in seconds."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(60_000):
        acc += i * i
        table[i & 255] = acc
    for k in range(300):
        a = _SMALL[k & 3]
        b = a @ a + a
        np.linalg.norm(b)
        b.sum()
    for _ in range(3):
        np.linalg.cholesky(_BIG)
        _BIG @ _BIG
    for _ in range(6):
        _VEC.copy()
    for k in range(200):
        np.linalg.eigh(_SMALL[k & 3])
    return time.perf_counter() - t0


def warm_up():
    for _ in range(WARMUP):
        sample()


def scale(samples):
    """Factor that turns times measured alongside ``samples`` into seconds
    at the reference speed."""
    return REF_S / statistics.fmean(samples)
