"""Timings corrected for the host's speed by a reference kernel run beside them.

The benchmark runs on a shared VM whose speed drifts with its neighbours'
load. A fixed NumPy loop's time varies by up to 1.7x within a minute, and
CPU time moves with wall time, so the drift is not the process being
descheduled: every instruction runs slower. A longer run cannot average that
away, because the drift lasts for minutes.

So every timed section is bracketed by runs of a fixed reference kernel that
uses nothing from mmfuse. The section's wall time is divided by the mean of
the two reference times around it and multiplied by ``REFERENCE_S``, the
kernel's time on an unloaded host. The result is the section's time in
*reference seconds*: what it would take on that host. A change to mmfuse
moves the section's time and leaves the kernel's alone, so it shows in full;
a slow spell of the host moves both and cancels out.

The kernel mixes the two kinds of work the workloads do: a loop of small
NumPy calls, where interpreter overhead dominates (the autodiff tape and
LSTM), and a shifted-window convolution over larger arrays (``conv2d``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

# The kernel's median time on an unloaded 2-vCPU Intel Xeon VM (Python 3.11,
# NumPy 2.4, OpenBLAS on 1 thread). It only sets the scale of the corrected
# timings; it is a fixed constant so that they compare across runs.
REFERENCE_S = 0.1

# A reference run this recent is reused for the next section instead of
# running the kernel again back to back.
FRESH_S = 0.05

_SMALL_STEPS = 800
_CONV_REPEATS = 3

# The convolution's arrays are allocated once. Allocating megabyte arrays
# between the workload's own moved its peak RSS from run to run.
_IMAGES = np.full((32, 18, 18, 32), 0.1)
_KERNEL = np.full((3, 3, 32, 64), 0.01)
_PATCH = np.empty((32 * 16 * 16, 32))
_PRODUCT = np.empty((32 * 16 * 16, 64))
_OUT = np.empty((32 * 16 * 16, 64))


def reference_kernel():
    """Run the fixed reference work once; returns its wall time in seconds."""
    start = time.perf_counter()
    state = np.full((32, 32), 0.5)
    weight = np.full((32, 128), 0.01)
    bias = np.zeros(128)
    for _ in range(_SMALL_STEPS):
        gates = state @ weight + bias
        sig = 1.0 / (1.0 + np.exp(-gates))
        hidden = np.tanh(gates[:, :32]) * sig[:, 32:64]
        state = hidden * 0.5 + state * 0.5
    patch = _PATCH.reshape(32, 16, 16, 32)
    for _ in range(_CONV_REPEATS):
        _OUT.fill(0.0)
        for u in range(3):
            for v in range(3):
                np.copyto(patch, _IMAGES[:, u : u + 16, v : v + 16, :])
                np.matmul(_PATCH, _KERNEL[u, v], out=_PRODUCT)
                np.add(_OUT, _PRODUCT, out=_OUT)
    return time.perf_counter() - start


@dataclass
class Timing:
    result: Any
    raw_s: float  # wall time
    scale: float = 1.0  # reference seconds per wall second; set when the section is bracketed

    @property
    def ref_s(self):
        """The time in reference seconds; the wall time when the clock is off."""
        return self.raw_s * self.scale


class Clock:
    """Times sections and corrects them with the reference kernel.

    A section timed inside another is not bracketed itself: it takes the
    outer section's correction, so no reference runs inside a timed section.
    Consecutive sections share the reference run between them. With
    ``enabled=False`` no reference runs and ``ref_s == raw_s``; traced runs
    use that, since they compare traced with untraced wall time.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.reference_runs = []
        self._nested = None  # timings of sections inside the open outer one
        self._last_end = None

    def _reference(self):
        if self._last_end is not None and time.perf_counter() - self._last_end < FRESH_S:
            return self.reference_runs[-1]
        self.reference_runs.append(reference_kernel())
        self._last_end = time.perf_counter()
        return self.reference_runs[-1]

    def measure(self, fn):
        """Run ``fn()`` as one timed section; exceptions propagate untimed."""
        if self._nested is not None:
            start = time.perf_counter()
            timing = Timing(fn(), 0.0)
            timing.raw_s = time.perf_counter() - start
            self._nested.append(timing)
            return timing
        before = self._reference() if self.enabled else None
        self._nested = []
        try:
            start = time.perf_counter()
            timing = Timing(fn(), 0.0)
            timing.raw_s = time.perf_counter() - start
            nested = self._nested
        finally:
            self._nested = None
        if self.enabled:
            scale = REFERENCE_S / ((before + self._reference()) / 2)
            for t in (timing, *nested):
                t.scale = scale
        return timing
