"""A calibration kernel: what the host is costing Python right now.

The box this benchmark was built on is a shared VM.  For minutes at a
time its neighbours make everything 20-60% slower, and no statistic over
one 20 s run can see through an episode longer than the run.  So each
run also times a fixed kernel between its repetitions and reports wall
metrics *relative* to it:

    reported = measured floor × NOMINAL_MS / kernel floor

that is, "µs per op on a host that runs the kernel in NOMINAL_MS".  On
25 minutes of traces this halved the run-to-run spread of every
workload's floor (13-20% down to 6-8%, correlation 0.88); a quiet host
leaves the numbers as they are.  The raw floors are kept in ``info``.

The kernel has to slow down the way the platform does, and a tight loop
does not (it lost 10% where ``rpc_bulk`` lost 60%): interference takes
cache, and the platform has a big footprint.  So the kernel walks three
megabytes of small dicts, lists and strings in shuffled order through
four hundred distinct functions.
"""

from __future__ import annotations

import random
import time

#: The kernel's floor, in ms, on a quiet moment of the box the baseline
#: was recorded on.  Only a scale: it makes reported numbers read like
#: that box's wall clock.  Changing it rescales every ledger.
NOMINAL_MS = 10.5

_FUNCTIONS = 400
_POOL = 3_000
_STEPS = 12_000

_TEMPLATE = """
def step{i}(pool, index, acc):
    item = pool[index]
    value = item.get('k{key}', {a})
    item['k{key}'] = (value * {b} + acc) % 1009
    tags = item['tags']
    if len(tags) > {c}:
        del tags[0]
    tags.append('t%d' % (acc % 13))
    record = {{'i': index, 'v': value, 's': item['name'][:{c}]}}
    return (acc + value + len(record['s'])) % 100003, item['next']
"""


class Calibration:
    """Build once per run; :meth:`sample` is ~10 ms of fixed work."""

    def __init__(self) -> None:
        rng = random.Random(7)
        namespace: dict = {}
        for i in range(_FUNCTIONS):     # one at a time: small compiles
            exec(_TEMPLATE.format(i=i, key=i % 7, a=rng.randrange(1, 9),
                                  b=rng.randrange(1, 9),
                                  c=rng.randrange(2, 6)), namespace)
        self._steps = [namespace[f"step{i}"] for i in range(_FUNCTIONS)]
        order = list(range(_POOL))
        rng.shuffle(order)
        self._pool = [None] * _POOL
        for position, index in enumerate(order):
            # Every key present and the tags longer than any {c}, so the
            # first sample is the same work as the last.
            self._pool[index] = {
                "name": f"object-{index}-{rng.randrange(10 ** 6)}",
                "tags": ["t0"] * 6,
                "next": order[(position + 1) % _POOL],
                **{f"k{key}": key for key in range(7)},
            }
        self.samples_ms: list = []

    def sample(self) -> None:
        steps, pool = self._steps, self._pool
        count = len(steps)
        acc, index = 1, 0
        started = time.perf_counter()
        for step in range(_STEPS):
            acc, index = steps[step % count](pool, index, acc)
        self.samples_ms.append((time.perf_counter() - started) * 1000.0)

    def scale(self) -> float:
        """What to multiply a measured floor by."""
        return NOMINAL_MS / min(self.samples_ms)
