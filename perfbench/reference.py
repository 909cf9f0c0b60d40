"""A fixed kernel that gauges the host's speed, to normalise timings.

On a shared 2-core VM the host's speed wanders by about a fifth over tens
of seconds: one fixed N = 120 gap point took 28 ms to 46 ms a call in
2-second windows.  No run is long enough to average that out.  This kernel
mixes Python control flow with small numpy calls, as coagchain's hot paths
do.  Run between a workload's calls, its time tracked a fixed gap point, a
Gillespie run and a 500 x 500 dense eigensolve with a correlation of 0.97
to 0.99 over 3 s and 6 s windows.  The ratio of the two varied by 2% to 5%
where each alone varied by 20% to 30%.  It imports nothing from coagchain,
so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one kernel call is taken to last at the nominal host speed.  It
# only scales the normalised metric; it must never change, or entries of
# the trajectory stop being comparable.
NOMINAL_S = 0.010
# Kernel time run after each short call, as a share of the call's time; at
# least one kernel call follows every short call.
SHARE = 0.03
# Calls this long or longer are taken as measured and not followed by the
# kernel.  They average the host's drift themselves, and a gauge run after
# a 30 s call samples one moment of it: on large-chain, whose time is
# mostly one such call, normalising that way widened the ten-seed spread
# from 0.10-0.12 to 0.12 and 0.26.  The calls of this benchmark sit well
# to either side: at most about 0.35 s on gap-sweep and simulate, at most
# 0.46 s or at least 1 s on large-chain and oracle-check.
LONG_S = 0.7
# Kernel calls that gauge the host right after a process's set-up.
SETUP_CALLS = 10

_X = np.linspace(0.1, 3.0, 120)


def kernel() -> float:
    """Bisect a small smooth function 40 times, 30 steps each."""
    total = 0.0
    for k in range(40):
        lo, hi = -4.0, 0.5 + 0.01 * k
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if np.sum(np.cos(mid * _X) / (1.0 + _X * _X)) > 0.3:
                lo = mid
            else:
                hi = mid
        total += mid
    return total


def slowdown_now(calls: int = SETUP_CALLS) -> float:
    """The host's slowdown over ``calls`` kernel calls, after one unmeasured
    call that pays numpy's lazy set-up."""
    kernel()
    start = time.perf_counter()
    for _ in range(calls):
        kernel()
    return (time.perf_counter() - start) / calls / NOMINAL_S


class HostSpeed:
    """Kernel timings taken after a run's short calls."""

    def __init__(self):
        kernel()                      # first call pays numpy's lazy set-up
        self.seconds = 0.0
        self.calls = 0

    def after_call(self, call_seconds: float) -> None:
        """After a short call, run the kernel for SHARE of the call's time,
        at least once."""
        if call_seconds >= LONG_S:
            return
        spent = 0.0
        while True:
            start = time.perf_counter()
            kernel()
            spent += time.perf_counter() - start
            self.calls += 1
            if spent >= SHARE * call_seconds:
                break
        self.seconds += spent

    def slowdown(self) -> float:
        """Mean kernel time over NOMINAL_S: above 1 on a slow host; 1 when
        no short call was gauged."""
        return self.seconds / self.calls / NOMINAL_S if self.calls else 1.0
