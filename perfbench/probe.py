"""Machine-speed probe for one round, and the clock that takes its drift out.

On a shared virtual machine each virtual processor flips between a fast
and a slow state, about 1.6x apart, every fraction of a second, the share
of time spent in the slow state drifts over minutes, and for spells of
minutes the host takes a tenth of the processor's time away (steal time),
so raw times of the same work spread by 15 % and more between runs.

The probe samples both while the round works.  Every INTERVAL_S of a
process's own CPU time, a timer signal runs a fixed piece of integer
arithmetic (``reference_unit``: no latmass code, no garbage-collected
objects) and records its wall and CPU start and end.  The CPU time it took
gives the processor's speed, NOMINAL_S / CPU seconds, taken as a running
median over SMOOTH samples so that one odd sample does not count.  Between
two samples, the CPU time the process got over the wall time that passed
gives its run fraction, which steal time and waiting for the processor
lower.  Pool workers forked by the round start their own probe and write
its samples to a directory when they exit.

``Probe.clock(workers)`` maps this process's ``perf_counter()`` timestamps
to a nominal timeline: the probe's own intervals take no time on it, and
each gap between two of its samples runs at speed x run fraction.  Speed
is the mean over the samples of all processes from the gap's first sample
to its last; the run fraction is this process's own, or, where this
process mostly waited (on the pool workers), the workers' mean run
fraction in the gap.  A duration on the nominal timeline is what the work
would take with the whole processor at nominal speed.  A change to
latmass moves it as much as it moves the raw time, since the probe runs
none of latmass's code.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
from array import array
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter, thread_time

INTERVAL_S = 0.02  # CPU time of a process between probes
SMOOTH = 5  # samples in the running median of the speed
NOMINAL_S = 0.00042  # probe CPU time at nominal speed: its median on a 2-vCPU VM, Python 3.11
BUSY = 0.5  # below this run fraction a process counts as waiting


def reference_unit() -> int:
    x = 1
    for i in range(2000):
        x = (x * 48271 + i) % 2147483647
    return x


class Probe:
    def __init__(self):
        self.dump_dir: Path | None = None  # where pool workers write samples
        self.samples = array("d")  # wall start, wall end, CPU start, CPU end, ...

    def sample(self, *_):
        c0 = thread_time()
        t0 = perf_counter()
        reference_unit()
        t1 = perf_counter()
        self.samples.extend((t0, t1, c0, thread_time()))

    def start(self):
        self.sample()
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        mp_util.register_after_fork(self, Probe._start_in_worker)

    def _start_in_worker(self):
        # interval timers are not inherited across fork; the handler is
        self.samples = array("d")
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self):
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"probe-{os.getpid()}.json"
        path.write_text(json.dumps(list(self.samples)))

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_IGN)
        self.sample()

    def own(self) -> list[tuple[float, ...]]:
        """(wall start, wall end, CPU start, CPU end) of each own sample."""
        return list(zip(*[iter(self.samples)] * 4))

    def worker_samples(self) -> list[list[tuple[float, ...]]]:
        """The samples of each exited pool worker."""
        workers = []
        for path in sorted(self.dump_dir.glob("probe-*.json")):
            flat = json.loads(path.read_text())
            workers.append(list(zip(*[iter(flat)] * 4)))
            path.unlink()
        if self.dump_dir.is_dir():
            self.dump_dir.rmdir()
        return workers

    def busy_s(self) -> float:
        return sum(e - s for s, e, _, _ in self.own())

    def clock(self, workers=()):
        """t -> position of perf_counter() time t on the nominal timeline."""
        own = self.own()
        merged = sorted([(x, True) for x in own] + [(x, False) for w in workers for x in w])
        raw = [NOMINAL_S / max(ce - cs, 1e-9) for (_, _, cs, ce), _ in merged]
        half = SMOOTH // 2
        smooth = [statistics.median(raw[max(0, k - half) : k + half + 1]) for k in range(len(raw))]
        mine = [k for k, (_, is_own) in enumerate(merged) if is_own]
        # (wall middle, run fraction) between consecutive samples of a worker
        worker_runs = [
            ((a[1] + b[0]) / 2, (b[2] - a[3]) / (b[0] - a[1]))
            for w in workers
            for a, b in zip(w, w[1:])
            if b[0] > a[1]
        ]
        # knots s0, e0, s1, e1, ... of the own samples; the gap after e_k
        # runs at rates[k] nominal seconds per wall second
        knots = [t for s, e, _, _ in own for t in (s, e)]
        rates, at = [], [0.0, 0.0]
        for k in range(1, len(own)):
            a, b = own[k - 1], own[k]
            wall = b[0] - a[1]
            run = (b[2] - a[3]) / wall if wall > 0 else 1.0
            if run < BUSY:
                inside = [r for mid, r in worker_runs if a[1] <= mid <= b[0]]
                run = statistics.fmean(inside) if inside else run
            speed = statistics.fmean(smooth[mine[k - 1] : mine[k] + 1])
            rates.append(speed * min(run, 1.0))
            gap_end = at[-1] + wall * rates[-1]
            at += [gap_end, gap_end]
        first = smooth[mine[0]]
        rates.append(smooth[mine[-1]])

        def nominal(t: float) -> float:
            i = bisect.bisect_right(knots, t) - 1
            if i < 0:
                return (t - knots[0]) * first
            if i % 2 == 0:  # inside own sample i // 2
                return at[i]
            return at[i] + (t - knots[i]) * rates[i // 2]

        return nominal
