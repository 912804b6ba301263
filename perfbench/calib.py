"""Host-speed sampling: a reference loop run by a timer inside timed work.

On a shared host the CPU speed drifts by tens of percent over seconds and
minutes, which moves every wall-clock figure with it.  While a set-up or a
CLI command runs, ``SpeedSampler`` has a wall-clock timer (``SIGALRM``) run a
short fixed reference loop in the same thread every ``INTERVAL_S`` seconds
and time it.  The work's seconds are then reported scaled to the speed those
samples measured:

    scaled_s = (raw_s - sampling_s) * mean(NOMINAL_S / sample_s)

so work that slows down together with the loop keeps its figure, and work
that slows down on its own does not.  The loop uses only the standard library
and numpy, never setnet, so no change to the program under test can move it.
Its mix follows the program's hot paths: scalar float maths with
``math.lgamma`` (the NB kernels), list and dict work with a sort (NMS, metric
aggregation), JSON parsing (the artifact readers) and small numpy calls (the
MLP layers).
"""

from __future__ import annotations

import contextlib
import json
import math
import signal
import time

import numpy as np

# The loop's typical time on a 2-vCPU Intel Xeon VM; scaled figures read as
# seconds at that speed.
NOMINAL_S = 0.01
INTERVAL_S = 0.2

_ROWS = json.dumps([{"image_id": i, "box": [i * 0.5, i * 0.25, i + 12.0, i + 9.5],
                     "score": 1.0 / (1.0 + i)} for i in range(120)])
_W = np.linspace(-1.0, 1.0, 8 * 16).reshape(8, 16)
_X = np.linspace(0.0, 1.0, 8)


def reference_loop() -> float:
    acc = 0.0
    for i in range(1, 3000):
        a = 0.5 + (i % 37) * 0.25
        acc += math.lgamma(i % 50 + a) - math.lgamma(a) + a * math.log(1.0 + 1.0 / i)
    for r in range(2):
        boxes = [((i * 7919 + r) % 211, (i * 104729) % 173, i) for i in range(1200)]
        boxes.sort()
        seen: dict[int, float] = {}
        for x, y, i in boxes:
            w = min(x, y) / (1.0 + max(x, y))
            seen[i % 97] = seen.get(i % 97, 0.0) + w
        acc += sum(seen.values())
    for _ in range(10):
        acc += sum(r["score"] for r in json.loads(_ROWS))
    h = _X
    for _ in range(360):
        h = np.tanh(h @ _W) @ _W.T * 0.1 + _X
    return acc + float(h.sum())


class SpeedSampler:
    """Times ``reference_loop`` every ``INTERVAL_S`` s while it is entered.

    ``begin()`` samples once and marks a window; ``end(mark)`` samples once
    more, so every window has a sample at each edge, and returns the
    window's mean speed (``NOMINAL_S / sample_s``) and the seconds the
    sampling took between the two edges.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._inside = False
        self._previous = None

    def sample(self, *_args) -> None:
        if self._inside:
            return
        self._inside = True
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.busy_s += time.perf_counter() - t0
        self._inside = False

    def _arm(self, interval: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self._arm(INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        self._arm(0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        self._arm(0.0)
        try:
            yield
        finally:
            self._arm(INTERVAL_S)

    def begin(self) -> tuple[int, float]:
        self.sample()
        return len(self.samples) - 1, self.busy_s

    def end(self, mark: tuple[int, float]) -> tuple[float, float]:
        first, busy = mark
        busy = self.busy_s - busy
        self.sample()
        window = self.samples[first:]
        return sum(NOMINAL_S / s for s in window) / len(window), busy
