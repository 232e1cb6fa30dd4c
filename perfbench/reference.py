"""Reference kernel: a fixed unit of work that gauges the host's current speed.

The benchmark runs on shared hosts whose speed follows the neighbours' load:
it drifts by up to 2x over minutes and flips between two speeds within
seconds, so the wall time of one and the same command varies by more than
the regressions the benchmark has to catch.  The worker therefore times this
kernel in the same process just before every command, and the gated
latencies are the command's wall time divided by the kernel's (unit ``ref``).
A host that is 30% slower for a minute slows both alike, so the ratio stays;
a program that gets 30% slower moves the ratio alone.  The raw wall times are
reported beside the ratios.

The kernel mixes the kinds of work rotbell's commands do: interpreter
bytecode, numpy arithmetic on small complex arrays, a small symmetric
eigendecomposition, fresh pages faulted in and written, and a stream through
32 MiB of resident buffers.  The stream is there for the memory-bound
``ket-analyze``: core speed and memory speed drift apart, and without it the
ratio over-corrected that workload's drift.  The kernel never calls rotbell,
so no change to the program can move it.  All its memory comes from ``mmap``
directly, not from ``malloc``, so it leaves glibc's allocator state (the
dynamic mmap threshold and the heap top) to the program; its numpy
temporaries are 64 KiB, below the default mmap threshold, and its fresh
mappings are 256 KiB, so they never set the process's peak RSS.  The stream
buffers stay resident from import on; ``RESIDENT_KIB`` is their size, which
the worker takes off its peak RSS.

Change nothing here without measuring again: the ratios of two commits are
comparable only when both ran this same kernel.
"""

from __future__ import annotations

import mmap
from time import perf_counter

import numpy as np

_X = np.linspace(0.0, 1.0, 4096)
_M = np.cos(np.outer(np.arange(48.0), np.arange(48.0)) / 48.0)
_MAPPINGS = 32  # fresh mappings per call, each faulted in and written
_MAPPING_PAGES = 64
_STREAM_BYTES = 16 << 20  # each of the two stream buffers


def _resident(nbytes):
    """A float64 array over an anonymous mapping, written once so it is resident."""
    arr = np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.float64)
    arr[:] = 1.0
    return arr


_A = _resident(_STREAM_BYTES)
_B = _resident(_STREAM_BYTES)
RESIDENT_KIB = 2 * _STREAM_BYTES // 1024


def kernel():
    """One unit of reference work, about 20 ms on a 2 GHz Xeon core."""
    s = 0
    for i in range(15000):
        s += i * i
    acc = 0.0
    for _ in range(40):
        y = np.cos(_X * 3.0 + 0.5) * np.exp(-_X) + 1j * _X
        acc += float(np.abs(y).sum())
    acc += float(np.linalg.eigvalsh(_M + _M.T).sum())
    for _ in range(_MAPPINGS):
        with mmap.mmap(-1, _MAPPING_PAGES * mmap.PAGESIZE) as buf:
            pages = np.frombuffer(buf, dtype=np.float64)
            pages[:] = 1.0
            acc += float(pages[-1])
            del pages  # release the buffer export before the mapping closes
    np.copyto(_B, _A)
    np.copyto(_A, _B)
    return acc + s


def timed():
    """Seconds one call of the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
