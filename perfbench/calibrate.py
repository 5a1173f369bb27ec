"""Host-speed calibration: a fixed kernel sampled all through a process.

A shared host slows every process on it by a factor that drifts within
seconds: other tenants take hyperthreads, caches and memory bandwidth,
and process CPU time grows with them.  On a 2-vCPU VM the same fleet
pass took from 0.45 to 1.0 CPU seconds depending on the minute.

``Sampler`` arms a profiling timer that, every ``INTERVAL_S`` of process
CPU, interrupts the program between two bytecodes and times a short
fixed kernel.  The kernel does the same work on every run and on every
commit (it imports nothing from ``src/``) and exercises what the
library's hot paths do: bytecode dispatch, small-object attribute access,
dict and bytearray traffic, and calls.  Its working set is allocated
once and is small, so the program's heap does not change its cost.

``Sampler.reference_s(start, end)`` is the program's CPU between two
``clock()`` readings, with the kernel's own time taken out and each
stretch rescaled to a host on which one kernel sample takes
``NOMINAL_S``: a stretch run at half speed counts half.

While the timer is armed, Linux serves the process-wide CPU clock
(``time.process_time``) from the timer's tick-driven counters, so it
moves in 4 ms steps.  Everything here therefore reads the thread CPU
clock, which stays exact; the library runs serially in the main thread,
so that is the process's CPU.
"""

import signal
import time
from array import array

#: The CPU clock of every reading the sampler is compared with.
clock = time.thread_time

#: Process CPU seconds between two kernel samples.
INTERVAL_S = 0.05

#: Kernel CPU seconds of one sample on the reference host, a quiet
#: 2-vCPU Xeon VM: reference seconds then read like that VM's CPU
#: seconds.  Only the ratio matters; it sets the scale.
NOMINAL_S = 0.0021

#: Consecutive samples whose mean sets the speed of their stretch:
#: one sample jitters, WINDOW of them (0.4 s of CPU) much less.
WINDOW = 8

ROUNDS = 3000

_MEMORY = bytearray(1 << 16)
_TABLE = {key: [0, key] for key in range(1024)}


class _Cell:
    def __init__(self, key):
        self.key = key
        self.value = key * 7
        self.hits = 0


_CELLS = [_Cell(key) for key in range(256)]


def _mix(value, byte, count):
    return ((value << 3) ^ (value >> 5) ^ byte ^ count) & 0xFFFFFF


def kernel(rounds=ROUNDS):
    """The fixed work; returns a checksum that depends on all of it.

    It mutates its preallocated structures in place and creates no
    container, so it never triggers the cyclic collector.
    """
    memory, table, cells = _MEMORY, _TABLE, _CELLS
    state = 0x2545F491
    total = 0
    for step in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        address = state & 0xFFFF
        memory[address] = (memory[address] + step) & 0xFF
        entry = table[(state >> 9) & 0x3FF]
        entry[0] += 1
        cell = cells[state & 0xFF]
        cell.hits += 1
        cell.value = _mix(cell.value, memory[address], entry[0])
        total = (total + cell.value + entry[1]) & 0xFFFFFFFF
    return total


class Sampler:
    """Kernel samples taken from a ``SIGPROF`` timer.

    Sample ``i`` started at ``clock()`` reading ``starts[i]`` and took
    ``spent[i]`` CPU seconds.  The handler appends to flat arrays and so
    allocates nothing the cyclic collector tracks: a sample landing in
    the middle of a tracer wrapper cannot start a collection there.
    """

    def __init__(self):
        self.starts = array("d")
        self.spent = array("d")
        self._previous = None
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._tick()

    def burst(self, count):
        """Take ``count`` samples now: pins the speed of a short stretch
        (a cold interpreter's set-up) that the timer samples too sparsely."""
        for _ in range(count):
            self._tick()

    def _tick(self, _signum=None, _frame=None):
        if self._busy:
            return
        self._busy = True
        started = clock()
        kernel()
        self.spent.append(clock() - started)
        self.starts.append(started)
        self._busy = False

    def kernel_s(self, start, end):
        """Kernel CPU seconds spent between two readings."""
        return sum(spent for at, spent in zip(self.starts, self.spent)
                   if start <= at < end)

    def reference_s(self, start, end):
        """Program CPU seconds between two ``clock()`` readings taken
        outside the sampler, at the reference host's speed."""
        marks = list(zip(self.starts, self.spent))
        groups = max(1, len(marks) // WINDOW)
        total = 0.0
        low = float("-inf")
        for index in range(groups):
            group = marks[index * len(marks) // groups:
                          (index + 1) * len(marks) // groups]
            # A group's stretch runs from the end of the previous group's
            # last sample to the end of its own last sample; the first
            # and the last stretch reach out to cover everything.
            high = float("inf") if index == groups - 1 \
                else group[-1][0] + group[-1][1]
            clipped_low, clipped_high = max(low, start), min(high, end)
            low = high
            if clipped_high <= clipped_low:
                continue
            busy = clipped_high - clipped_low - sum(
                spent for at, spent in group
                if clipped_low <= at < clipped_high)
            mean = sum(spent for _at, spent in group) / len(group)
            total += busy * NOMINAL_S / mean
        return total
