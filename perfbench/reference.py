"""A fixed reference kernel that tracks the speed of the machine.

Shared hosts drift: on a 2-vCPU container the same pure-Python loop
ran 25-40 % slower for stretches of tens of seconds, and two identical
forms passes a minute apart differed by 45 %.  Every worker therefore
times short slices of this kernel during its pass, and each unit-call
time is reported without the slices inside it and scaled by
NOMINAL_NS / (mean slice time near that call): seconds on a machine
whose slice takes exactly NOMINAL_NS.  The kernel mixes the kinds of
work cmtk spends its time on (tuple polynomial arithmetic, dicts keyed
by tuples, Horner evaluation over a finite field), but it is the
benchmark's own frozen code, so no change to cmtk can move it.  Raw
times stay in the report beside scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time

NOMINAL_NS = 4_000_000  # one slice on the reference machine, by definition
SAMPLE_EVERY_S = 0.05  # wall time between slices while sampling
WINDOW_NS = 300_000_000  # slices within this distance of a call scale it
BLOCK = 5  # slices run back to back before and after a pass


def _mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    out = [v % p for v in out]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mod(a, w, p):
    r, dw = list(a), len(w) - 1  # w monic
    for i in range(len(r) - 1 - dw, -1, -1):
        c = r[i + dw] % p
        if c:
            for j in range(dw + 1):
                r[i + j] = (r[i + j] - c * w[j]) % p
    r = r[:dw]
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def _add_constant(v, c):
    out = list(v) or [0]
    out[0] = (out[0] + c) % 3
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


_W = (1, 2, 0, 1)  # T^3 + 2T + 1, irreducible over F_3
_M = (1, 0, 2, 1, 0, 0, 1, 1)
_ELEMENTS = [
    _mod((code % 3, code // 3 % 3, code // 9), _W, 3) for code in range(27)
]
_SQUARES = {_mod(_mul(t, t, 3), _W, 3) for t in _ELEMENTS if t}


def kernel():
    """Fixed work in three parts, each like a hot loop of cmtk.

    Products of coefficient tuples counted in a dict (the ``k*``
    kernels), a dict of tuple keys built and probed (sqrt tables and
    caches), and y^2 = m(t) evaluated by Horner's rule at every t in
    F_27 with a square test (point counting).
    """
    seen = {}
    for i in range(225):
        a = tuple((i * (k + 1) + i // 5 + k) % 3 for k in range(6))
        b = tuple((i // 2 + k * k) % 3 for k in range(5))
        c = _mul(a, b, 3)
        seen[c] = seen.get(c, 0) + 1
    table = {}
    for i in range(2000):
        key = (i % 7, i % 11, i % 13, i % 3)
        table[key] = table.get(key, ()) + (i,)
    probes = sum(len(table[(i % 7, i % 11, i % 13, i % 3)]) for i in range(2000))
    points = 0
    for _ in range(1):
        for t in _ELEMENTS:
            v = ()
            for c in reversed(_M):
                v = _add_constant(_mod(_mul(v, t, 3), _W, 3) if v and t else (), c)
            points += 1 if not v else (2 if v in _SQUARES else 0)
    return len(seen), probes, points


class Reference:
    """Slices of the kernel, each as (midpoint, duration) on one clock.

    ``sampling()`` takes a slice every SAMPLE_EVERY_S from a SIGALRM
    handler, so slices land inside long unit calls too.  The handler
    runs in the main thread between bytecodes and touches only its own
    data; ``inside_ns`` adds up the time it took, which the caller
    subtracts from whatever it was timing.  ``on_slice``, if set, is
    called from the handler with each slice's duration and the
    interrupted frame, so that a tracer can take the slice out of the
    spans it has open.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.mid = []
        self.dur = []
        self.inside_ns = 0
        self.on_slice = None
        self._busy = False

    def slice(self):
        # with the collector off, a collection of cmtk's heap never lands
        # in a slice: it stays in cmtk's time and out of the machine speed
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = self.clock()
            kernel()
            t1 = self.clock()
        finally:
            if enabled:
                gc.enable()
        self.mid.append((t0 + t1) // 2)
        self.dur.append(t1 - t0)
        return t1 - t0

    def block(self):
        for _ in range(BLOCK):
            self.slice()

    def _on_timer(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                took = self.slice()
                self.inside_ns += took
                if self.on_slice is not None:
                    self.on_slice(took, frame)
            finally:
                self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start, end):
        """NOMINAL_NS over the mean slice near [start, end].

        The mean, not the median: a call's time integrates the machine's
        speed over the call, and so does the mean of the slices in it.
        """
        lo = bisect.bisect_left(self.mid, start - WINDOW_NS)
        hi = bisect.bisect_right(self.mid, end + WINDOW_NS)
        near = self.dur[lo:hi]
        if not near:  # fall back to the nearest slice on either side
            i = bisect.bisect_left(self.mid, start)
            near = self.dur[max(0, i - 1) : i + 1]
        return NOMINAL_NS / statistics.fmean(near)
