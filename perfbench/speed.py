"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: other load changes how fast
the same Python code runs by up to 2x, in stretches of seconds to minutes,
so whole runs can be slow.  A fixed reference computation, timed just
before every job, tracks that speed; each job time is scaled by
REFERENCE_S / (recent reference time), which reports it at the speed at
which the reference takes REFERENCE_S.  The reference shares no code with
residua, so a change to residua moves the scaled times exactly as much as
the raw ones.

The reference is plain multivariate division over term maps of Fractions
(dicts, tuples, max() with an order key, Fraction arithmetic): the same
kind of work as residua's own kernel, so both slow down alike.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from fractions import Fraction

REFERENCE_S = 0.002  # the reference's time at the reporting speed
WINDOW = 8  # reference timings the current speed is the median of


def _grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _divide(f, divisors):
    work = dict(f)
    rem = {}
    while work:
        t = max(work, key=_grevlex)
        c = work[t]
        for lead, g in divisors:
            if all(a <= b for a, b in zip(lead, t)):
                shift = tuple(b - a for a, b in zip(lead, t))
                factor = c / g[lead]
                for m, v in g.items():
                    k = tuple(a + b for a, b in zip(m, shift))
                    s = work.get(k, 0) - factor * v
                    if s:
                        work[k] = s
                    else:
                        work.pop(k, None)
                break
        else:
            rem[t] = c
            del work[t]
    return rem


def _fixed_input():
    monos = [(i, j, k) for i in range(6) for j in range(6) for k in range(6) if i + j + k <= 5]
    f = {m: Fraction((7 * n) % 19 - 9 or 1, 1 + n % 4) for n, m in enumerate(monos)}
    divisors = []
    for shift in range(3):
        g = {m: Fraction((5 * n + shift) % 11 - 5 or 2) for n, m in enumerate(monos) if sum(m) <= 2}
        divisors.append((max(g, key=_grevlex), g))
    return f, divisors


_F, _DIVISORS = _fixed_input()


class Speed:
    """Scale factors from the recent timings of the reference computation."""

    def __init__(self):
        self._recent = deque(maxlen=WINDOW)

    def sample(self):
        t0 = time.perf_counter()
        _divide(_F, _DIVISORS)
        self._recent.append(time.perf_counter() - t0)

    def scale(self):
        """Factor turning a wall time just measured into reporting-speed time."""
        return REFERENCE_S / statistics.median(self._recent)
