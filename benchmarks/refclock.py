"""Reference seconds.

The vCPU this benchmark was tuned on changes speed by up to half within a
minute, and process CPU time tracks wall time throughout, so raw seconds do
not repeat. Every timed operation is therefore bracketed by runs of a fixed
reference that touches no ``legendreflow`` code, and its wall time is
rescaled by ``C / (reference time measured next to it)``. An operation in
the benchmark's own process is bracketed by ``kernel()``; a subprocess by a
fresh interpreter that imports numpy and runs ``kernel()`` once (this file
as a script), because interpreter start and imports do not slow down in
step with the kernel. A reference second is the time an operation takes on
a machine where the kernel takes ``C_REF`` and the fresh interpreter
``C_PROC``: the two constants are units, not measurements.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

C_REF = 1.0e-3
C_PROC = 0.1

_U = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
_K = np.arange(1.0, 13.0)
_W = np.cos(0.7 * _K) / _K


def kernel():
    """A plain Python loop over numpy scalars, single-point numpy calls and
    one vectorised trig table: the same mix of interpreter, call overhead and
    numpy work as the library's hot paths, in fixed amounts."""
    values = _W @ np.cos(np.multiply.outer(_K, _U))
    changes = 0
    for j in range(1024):
        if values[j] * values[j - 1] < 0.0:
            changes += 1
    acc = 0.0
    decay = np.exp(-0.1 * _K)
    for j in range(40):
        point = np.array([_U[j]])
        acc += float(((_W * decay) @ np.cos(np.multiply.outer(_K, point)))[0])
    return changes + acc


def kernel_seconds(repeats=1):
    """Median wall time of ``repeats`` back-to-back kernel runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def process_seconds(env, cwd):
    """Wall time of a fresh interpreter running ``kernel()`` once."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, cwd=cwd, check=True)
    return time.perf_counter() - start


def to_reference(raw_seconds, before, after, unit=C_REF):
    """Rescale a wall time by the reference times measured just before and
    after it; ``unit`` is the reference's time on the reference machine."""
    return raw_seconds * unit / (0.5 * (before + after))


if __name__ == "__main__":
    kernel()
