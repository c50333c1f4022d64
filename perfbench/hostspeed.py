"""How fast the host is running, sampled between the operations of a pass.

The sandbox is a two-vCPU slice of a shared machine whose speed moves
by tens of percent, from one tenth of a second to the next and in
phases of minutes: forty consecutive passes of ``sim_ckpt_recover`` read
2.5-4.7 s, and a fixed loop that touches nothing of the repository moved
with them (CPU time, not steal). No statistic over the passes of one run
removes that, and a run cannot outlast a phase, so every timing is
divided by the host's speed *while it was taken*. A fixed piece of work
(:meth:`HostSpeed.sample`) is timed before and after every pass and,
where the pass is made of operations in this process, between them, for
about a tenth of the measuring time. A pass's speed factor is the mean
of its samples over :data:`NOMINAL_SAMPLE_S`, and its wall and latencies
are reported divided by the factor: seconds on a host on which the
sample takes exactly :data:`NOMINAL_SAMPLE_S`. The sample runs no code
of the repository, so no change to ``src/repro`` moves it, and both
sides of a comparison are scaled by the same rule.

What the sample is made of was chosen on recordings of ``sim_scale`` and
``campaign_serial`` passes with three candidates timed at every sampling
point: an integer loop in the interpreter, a gather from a 4 MB table
and a streaming pass over 8 MB. The loop alone tracked the passes best
of the three, and the three timed as one (the loop about two thirds of
it) better than any alone, because the neighbours' memory traffic slows
the kernels and the 512-rank job more than it slows the interpreter:
spread of a 28-second run's median, 12 % raw, 7.6 % over the loop,
4.9 % over the three on ``sim_scale``; 6.2 %, 3.3 %, 3.3 % on
``campaign_serial``.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.perf_counter

#: what one sample takes on the host the reported numbers are quoted for
#: (this sandbox on an average hour; 12 ms in its quietest)
NOMINAL_SAMPLE_S = 0.015

#: share of the time since the last sample that is spent sampling
SHARE = 0.10

#: most samples taken at one point, and fewest taken around a pass
MOST, LEAST = 24, 4

LOOP_ITERATIONS = 200_000
TABLE_BYTES = 1 << 22
GATHERS = 1 << 19
STREAM_FLOATS = 1 << 20


class HostSpeed:
    """The samples of one pass. A workload calls :meth:`tick` between
    two operations; ``child.run_passes`` samples :meth:`around` every
    pass and reads :meth:`factor`."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 255, size=TABLE_BYTES, dtype=np.uint8)
        # indexes of the width np.take works in and a buffer for what it
        # gathers, so that a sample allocates nothing: megabytes freed
        # per sample made the child's peak RSS bimodal
        self._index = rng.integers(0, TABLE_BYTES, size=GATHERS,
                                   dtype=np.intp)
        self._gathered = np.empty(GATHERS, dtype=np.uint8)
        self._stream = np.ones(STREAM_FLOATS)
        self.samples: list = []
        #: seconds spent sampling since the pass began; they are taken
        #: off its wall
        self.paused = 0.0
        #: ticks sample only while this is on (it is off in a traced
        #: pass, whose open span would be charged the samples)
        self.ticking = True
        self._mark = clock()

    def sample(self) -> float:
        """Seconds the fixed work takes now: an integer loop in the
        interpreter, a gather, two streaming passes."""
        started = clock()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i
        np.take(self._table, self._index, out=self._gathered, mode="wrap")
        np.negative(self._stream, out=self._stream)
        np.negative(self._stream, out=self._stream)
        return clock() - started

    def tick(self) -> None:
        """Between two operations of a pass: sample for :data:`SHARE`
        of the time since the last sample, which is not at all while
        that is less than one sample's worth."""
        if self.ticking:
            self._take(0)

    def around(self) -> None:
        """Before and after a pass: the same, and :data:`LEAST` samples
        at least."""
        self._take(LEAST)

    def _take(self, least: int) -> None:
        started = clock()
        owed = int(SHARE * (started - self._mark) / NOMINAL_SAMPLE_S)
        count = max(least, min(MOST, owed))
        if count > 0:
            self.samples.extend(self.sample() for _ in range(count))
            self._mark = clock()
            self.paused += self._mark - started

    def factor(self) -> float:
        """How many times slower than nominal the host ran, on average
        over the samples held."""
        return sum(self.samples) / len(self.samples) / NOMINAL_SAMPLE_S
