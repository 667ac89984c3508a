"""The host's current speed, read from a fixed pure-Python kernel.

On a shared VM the same interpreted code runs 20-40% slower or faster for
seconds to minutes at a time, whatever this process does, so two runs of
one commit can differ by more than a regression bound.  Part of that is
time the hypervisor gives the CPU to others, which the thread's CPU time
already leaves out; the rest (shared caches, clock speed) slows each CPU
second.  The run times this kernel, in CPU time, right after every
operation and divides each operation's CPU time by the host's speed
around it, which gives times "at the reference speed": the time the
operation would take on a host where the kernel takes ``REFERENCE_S``.

The kernel shares no code with superell, so a change to superell cannot
move it; it does what superell's hot loops do (small objects with
``__slots__``, operator dispatch, modular integer products, Horner
evaluation over a field), so that the host slows both alike.
"""

from __future__ import annotations

import statistics
import time

# The kernel's median time on the reference host (a shared 2-CPU x86_64 VM,
# Python 3.11.7), so that scaled times read as seconds on that host.
REFERENCE_S = 0.0038
WINDOW = 4    # the speed around sample i is the median of samples i-4 .. i+4

_P = 1000003


class _Fp2:
    """a + b*sqrt(7) over F_P: the kernel's field element."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, other):
        return _Fp2((self.a * other.a + 7 * self.b * other.b) % _P,
                    (self.a * other.b + self.b * other.a) % _P)

    def __add__(self, other):
        return _Fp2((self.a + other.a) % _P, (self.b + other.b) % _P)


_COEFFS = [_Fp2(i, i + 1) for i in range(8)]


def kernel() -> int:
    """Evaluate a fixed degree-7 polynomial at 300 points by Horner's rule."""
    acc = 0
    for x in range(300):
        point, value = _Fp2(x, 1), _Fp2(0, 0)
        for c in reversed(_COEFFS):
            value = value * point + c
        acc ^= value.a
    return acc


def sample() -> float:
    """The median of three timings of the kernel (s of thread CPU time)."""
    times = []
    for _ in range(3):
        start = time.thread_time()
        kernel()
        times.append(time.thread_time() - start)
    return statistics.median(times)


def factors(samples):
    """For each sample, REFERENCE_S over the median of the samples within
    WINDOW of it: multiply a time taken next to sample i by factors[i] to
    get its time at the reference speed."""
    out = []
    for i in range(len(samples)):
        local = statistics.median(samples[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(REFERENCE_S / local)
    return out
