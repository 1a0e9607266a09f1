"""How fast this CPU runs right now, from a fixed kernel that does not touch
goldbachkit.

On a shared host the same pass takes up to twice as long when other guests
load the machine, and the CPU time a process is charged rises with it: the
core runs slower, it is not only taken away.  Each timed sample (a pass or a
set-up) therefore runs this kernel in the same process, after the timed
work, and run.py scales a run's times by REFERENCE_S / its median kernel
time.  The kernel mixes the kinds of work the workloads do, because they
slow down by different amounts: interpreted integer arithmetic, FFTs and
vector arithmetic on arrays that fit in cache, and FFTs and prefix sums on
arrays that do not.
"""

import time

import numpy as np

# A fixed scale: about the CPU time of kernel() on a 2-vCPU Intel Xeon
# (2.0 GHz nominal) VM with its host lightly loaded.  A scaled time reads in
# seconds of such a machine.
REFERENCE_S = 0.25

LOOP = 400_000
SMALL, SMALL_REPEATS = 1 << 15, 64  # 256 KB arrays
LARGE, LARGE_REPEATS = 1 << 21, 2  # 16 MB arrays


def kernel() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    a = np.arange(SMALL, dtype=np.float64)
    for _ in range(SMALL_REPEATS):
        total += int(np.fft.rfft(a)[1].real > 0)
        total += int(np.sqrt(a * a + 1.0)[-1] > 0)
    b = np.arange(LARGE, dtype=np.float64)
    for _ in range(LARGE_REPEATS):
        total += int(np.fft.rfft(b)[1].real > 0)
        total += int(np.cumsum(b)[-1] > 0)
    return total


def kernel_cpu_s() -> float:
    """CPU time of one run of kernel() in this process."""
    start = time.process_time()
    kernel()
    return time.process_time() - start
