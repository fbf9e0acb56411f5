"""A clock that counts time at a fixed reference speed of the processor.

The shared hosts this benchmark was written on change speed by up to
80% at scales of a second to many minutes, whatever the benchmark does.
Wall time then moves with the host rather than with the program.
`ReferenceClock` runs a fixed pure-Python probe loop every `interval`
seconds of a run (from a SIGALRM handler, so between the program's
bytecodes in the main thread) and advances at `PROBE_REF_S / probe
time`: on a host as fast as the reference it reads wall seconds, and on
a host running slower it counts the same work as the same time. The
probes themselves are left out.

The probe is an integer loop that allocates little and touches no
memory beyond the interpreter's own, so it tracks the processor's speed,
not the program's. A program that gets slower reads slower on this clock
too; only the host's own swings are removed.
"""

import signal
import statistics
import time

PROBE_ITERATIONS = 40_000
# probe time at the reference speed, about the middle one of the levels
# seen on a 2 GHz Xeon (Sapphire Rapids) VM: near 2.4, 3.2 and 4.3 ms
PROBE_REF_S = 0.0033
WINDOW = 3      # the rate follows the median of the last probes


def probe() -> float:
    """Seconds one fixed run of the reference loop takes now."""
    start = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - start


class ReferenceClock:
    """`now()` is seconds at the reference speed since the clock was made.

    Inside `with clock:` a timer probes the host's speed every `interval`
    seconds. Outside it the clock runs at the last measured rate.
    """

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.probes = []            # every probe time, for the results
        # (reference seconds up to the mark, perf_counter at the mark,
        # reference seconds per second since), replaced whole by a tick
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous = None

    def now(self) -> float:
        while True:
            state = self._state
            t = time.perf_counter()
            # a tick between the two reads would mix two states: read again
            if self._state is state:
                acc, mark, rate = state
                return acc + (t - mark) * rate

    def __enter__(self):
        acc = self.now()
        for _ in range(WINDOW):
            self._sample()
        self._state = (acc, time.perf_counter(), self._rate())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        return False

    def _tick(self, signum, frame):
        acc = self.now()
        self._sample()
        self._state = (acc, time.perf_counter(), self._rate())

    def _sample(self):
        self.probes.append(probe())

    def _rate(self):
        return PROBE_REF_S / statistics.median(self.probes[-WINDOW:])

    def summary(self) -> dict:
        """The probes of the run, for the results file."""
        q = statistics.quantiles(self.probes, n=4)
        return {"probes": len(self.probes),
                "probe_ms_q1_median_q3": [1e3 * q[0], 1e3 * q[1], 1e3 * q[2]],
                "probe_ref_ms": 1e3 * PROBE_REF_S}
