"""Speed of the machine while the benchmark runs, for rescaling times.

On a shared virtual machine the speed of a core changes from one second
to the next (a fixed task takes 70 us or 120 us, depending on the load
of other tenants), and a 10-30 s timing swings by 20-30% between runs.
The probe samples that speed inside the benchmark's own process: a
SIGALRM every INTERVAL_S runs a fixed task of Python arithmetic and small
numpy calls, the same mix as the program's, and times it.  A wall time
divided by the mean task time over the same interval, times REF_S, is
the wall time at reference speed: the work done, in seconds of a machine
on which the task takes REF_S.

The task runs in the main thread between bytecodes, so a C call that
holds the interpreter for long delays a sample, but never loses work.
"""

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02
# about the task's median time on the reference machine (2-vCPU VM, see
# README), so that times at reference speed read close to wall times there
REF_S = 80e-6

_X = np.arange(8.0)


def task():
    """The fixed task; returns its duration."""
    t = time.perf_counter()
    s = 0.0
    for i in range(300):
        s += math.sin(i)
    x = _X
    for _ in range(20):
        x = np.sqrt(x * x + 1.0)
    return time.perf_counter() - t


class Probe:
    """Times `task` every INTERVAL_S from `start` until `stop`."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(task())

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """Mean task time since the last take (one sample taken now when
        the interval was too short for any)."""
        samples, self.samples = self.samples, []
        if not samples:
            samples.append(task())
        return sum(samples) / len(samples)


def at_reference(wall_s, task_s):
    """A wall time measured while the task took task_s, at REF_S."""
    return wall_s * REF_S / task_s
