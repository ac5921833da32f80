"""Host calibration: a frozen pure-Python loop timed through the run.

The shared host this benchmark runs on slows down in episodes lasting
from a fraction of a second to minutes, by up to 2x, and the slowdown
does not show as steal time.  Every timing of the program moves with
it.  The benchmark times this loop — dict lookups over a 16k-entry
table of tuple keys and frozenset values, dict counting and a json
round trip, with ``gc`` paused and no ``repro`` import, so no change to
the program under test can move it — between requests, at least
``MIN_SAMPLES`` times per run, and multiplies every time it reports by
``CAL_REF / median`` (divides every rate by it).

Over four sets of ten 20-second runs per workload on a 2-vCPU host,
this factor cut the spread of the headline latency across runs
(interquartile range over median) from 11–29% raw to 4–12%.  Scaling
by a power of the factor below 1 won on some sets and lost on others,
so none is used.  The table is large enough to leave the CPU caches,
which made the loop track the analysis better than a cache-resident
loop did.

``CAL_REF`` is frozen: it sets the scale of every normalized time and
is about this loop's median on a quiet 2-vCPU host.  Never retune it in
a change that claims a gain; a new value re-bases every normalized time.

Run standalone to print this host's median::

    python3 benchmarks/e2e/calibrate.py
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from typing import Iterable, List

#: Median seconds of one :meth:`Calibration.sample` on the reference host.
CAL_REF = 0.025
#: Entries in the lookup table, and lookups in one sample (~25 ms).
TABLE_SIZE = 16000
LOOKUPS = 30000
MIN_SAMPLES = 20


class Calibration:
    """The frozen loop's table, and the samples collected through one run."""

    def __init__(self, samples: Iterable[float] = ()) -> None:
        keys = [("k", i, str(i % 97)) for i in range(TABLE_SIZE)]
        self._table = {key: frozenset((i % 7, i % 11, key[2])) for i, key in enumerate(keys)}
        random.Random(0).shuffle(keys)
        self._keys = keys
        self.samples: List[float] = list(samples)

    def sample(self) -> float:
        """Seconds for one pass of the frozen loop, with ``gc`` paused."""
        table, keys = self._table, self._keys
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            seen = {}
            size = 0
            for j in range(LOOKUPS):
                key = keys[j % TABLE_SIZE]
                members = table[key]
                size += len(members)
                slot = (key[1] % 4096, members)
                seen[slot] = seen.get(slot, 0) + 1
            json.loads(json.dumps(sorted(seen.values())[:2000]))
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(self.sample())

    def top_up(self) -> None:
        """Reach ``MIN_SAMPLES`` before the factor is read."""
        self.take(max(0, MIN_SAMPLES - len(self.samples)))

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a raw time by this (divide a rate by it)."""
        return CAL_REF / self.median


if __name__ == "__main__":
    cal = Calibration()
    cal.take(MIN_SAMPLES)
    print(f"median {cal.median:.6f}s over {len(cal.samples)} samples (CAL_REF {CAL_REF}s)")
