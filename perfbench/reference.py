"""A fixed reference kernel that gauges how fast the machine is right now.

The benchmark runs on a shared host whose speed drifts by a third, on both
of its cores at once, from fractions of a second to minutes; the same solve
pass can read 4.0 s and 5.3 s a few minutes apart. A kernel that never
touches the library slows down with the machine but not with the program.
`Gauge` runs it from a timer signal at a fixed rate all through a pass, in
the middle of the solves, and keeps its time out of theirs; a pass's solve
time divided by the kernel's mean time over the same seconds tracks the
program's cost and not the host's load.

Two kernels, each like the work that dominates the workloads it gauges;
one run of either takes about 12 ms:

- `interp`: a bottleneck Held-Karp DP over the subsets of 10 points, a
  Python loop with one small numpy call per state, like the walk DP and the
  hub path cover of `many_visits` (`small-exact`, `clustered-hub`);
- `array`: distance rows of 32 of 10^4 points swept in blocks and counted
  against a threshold, like the candidate sweep and threshold graph of the
  distance layer (`blob-10k`).
"""

import signal
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20151209)
_POINTS = _RNG.random((10, 2))
_DIST = np.sqrt(((_POINTS[:, None] - _POINTS[None]) ** 2).sum(-1))
_CLOUD = _RNG.random((10_000, 2))


def _interp() -> float:
    n = len(_DIST)
    full = 1 << n
    best = np.full((full, n), -np.inf)
    best[1, 0] = np.inf
    for mask in range(3, full, 2):  # paths start at point 0
        for j in range(1, n):
            bit = 1 << j
            if mask & bit:
                prev = best[mask ^ bit]
                best[mask, j] = np.max(np.minimum(prev, _DIST[:, j]))
    return float(best[full - 1].max())


def _array() -> int:
    count = 0
    for row in range(0, 32, 8):
        block = _CLOUD[row:row + 8, None, :] - _CLOUD[None, :, :]
        count += int((np.sqrt((block ** 2).sum(-1)) > 0.5).sum())
    return count


KERNELS = {"interp": _interp, "array": _array}


def sample(kind: str) -> tuple:
    """(wall s, cpu s) of one run of the `kind` kernel."""
    work = KERNELS[kind]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    work()
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Gauge:
    """While entered, runs the `kind` kernel every `every` seconds of wall
    time from SIGALRM. The handler runs between two bytecodes of whatever the
    main thread is doing (a long numpy call delays it to its end); `clock`
    reads wall and cpu time with the handler's time taken out."""

    def __init__(self, kind: str, every: float):
        self.kind = kind
        self.every = every
        self.samples = []
        self.spent = (0.0, 0.0)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append(sample(self.kind))
        self.spent = (self.spent[0] + time.perf_counter() - wall0,
                      self.spent[1] + time.process_time() - cpu0)

    def clock(self) -> tuple:
        """(wall s, cpu s) clocks that stand still while the kernel runs."""
        wall, cpu = time.perf_counter(), time.process_time()
        spent = self.spent
        return wall - spent[0], cpu - spent[1]

    def __enter__(self):
        self.samples.append(sample(self.kind))  # one, however short the stay
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean(self) -> tuple:
        """(wall s, cpu s): the kernel's mean time over the samples."""
        return (statistics.fmean(w for w, _ in self.samples),
                statistics.fmean(c for _, c in self.samples))
