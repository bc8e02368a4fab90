"""The host-speed yardstick the timed metrics are measured in.

On a shared host the same pure-Python work takes from one to one and a half
times as long from one second to the next: the CPU itself runs slower, so
the process's CPU time slows with its wall time, and over a run of a minute
the slow spells need not even out.  They slow a loop of the same kind of
work by nearly the same factor, so the benchmark times a fixed loop
alongside the program and reports the program's times in units of that
loop, `cal`.  A calibration is the median of three runs of the loop, each
timed in the CPU time of the thread, so that a calibration made while a CLI
subprocess shares the CPU does not count the subprocess's time slices.  One
is made right before and right after every sample, and a timer signal
makes one every TICK_S seconds while the sample runs; the sample's cal is
the mean of all of them, so a five-second case is measured against the
host's speed during those five seconds, not at its ends.  The ticks' own
time is left out of the sample's time.

The loop is the benchmark's own code and imports nothing of monolink, so a
change to the program cannot move it: a program twice as fast reads half
as many cal.  It runs with the garbage collector off, so that however many
objects the program keeps alive, the loop's own time does not change.  The
slow spells slow different kinds of Python work by different factors, so
each workload has a loop like its own work: `product` multiplies two fixed
sparse polynomials held as dicts from exponent tuples to Fractions, as the
polynomial ring does for `verify-catalog`; `binomials` sums memoised
recursive binomial coefficients, small-integer calls and dict lookups, as
the combinatorics do for `identity-sweep`.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction

TERMS = 18
NVARS = 6
SEED = 20010623
BINOMIAL_ROWS = 26
REPEATS = 3
TICK_S = 0.1


def _operand(rng: random.Random) -> dict:
    poly: dict[tuple[int, ...], Fraction] = {}
    while len(poly) < TERMS:
        exps = tuple(rng.randrange(4) for _ in range(NVARS))
        poly[exps] = Fraction(rng.randrange(-99, 100) or 1, rng.randrange(1, 30))
    return poly


def _product(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = get(key)
            out[key] = ca * cb if acc is None else acc + ca * cb
    return out


def _binomial(n: int, k: int, memo: dict) -> int:
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    value = memo.get((n, k))
    if value is None:
        value = _binomial(n - 1, k - 1, memo) + _binomial(n - 1, k, memo)
        memo[(n, k)] = value
    return value


def _binomial_sums() -> int:
    total = 0
    for n in range(BINOMIAL_ROWS):
        memo: dict = {}
        for k in range(0, n + 1, 3):
            total += (-1) ** k * _binomial(n, k, memo)
    return total


def product_loop():
    rng = random.Random(SEED)
    a, b = _operand(rng), _operand(rng)
    return lambda: _product(a, b)


def binomials_loop():
    return _binomial_sums


LOOPS = {"product": product_loop, "binomials": binomials_loop}


class Calibrator:
    """Times the fixed loop, before, during and after each sample."""

    def __init__(self, loop: str) -> None:
        self._loop = LOOPS[loop]()
        self.expected = self._loop()
        self.times = array("d")  # every calibration, in seconds
        self.tick_s = 0.0  # time spent in ticks so far
        self.wrong = 0
        self._in_tick = False

    def measure(self) -> float:
        """One calibration: the median of REPEATS runs of the loop, in
        seconds of thread CPU time."""
        runs = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPEATS):
                start = time.thread_time()
                out = self._loop()
                runs.append(time.thread_time() - start)
                self.wrong += out != self.expected
        finally:
            if enabled:
                gc.enable()
        elapsed = statistics.median(runs)
        self.times.append(elapsed)
        return elapsed

    def _tick(self, signum, frame) -> None:
        if self._in_tick:  # a tick that fires during a tick is dropped
            return
        self._in_tick = True
        start = time.perf_counter()
        try:
            self.measure()
        finally:
            self.tick_s += time.perf_counter() - start
            self._in_tick = False

    @contextmanager
    def ticking(self):
        """Calibrate every TICK_S seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Calibrate before a sample; pass the result to `unit_since`."""
        self.measure()
        return len(self.times) - 1

    def unit_since(self, mark: int) -> float:
        """Calibrate after a sample; the length of one cal over the sample,
        in seconds: the mean of the calibrations since `mark`."""
        self.measure()
        return statistics.fmean(self.times[mark:])

    def around(self, fn, *args):
        """Run `fn(*args)` between two calibrations; return its result and
        the length of one cal over it, in seconds."""
        mark = self.mark()
        result = fn(*args)
        return result, self.unit_since(mark)
