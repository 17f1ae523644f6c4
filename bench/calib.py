"""Reference work that puts timings on a fixed scale.

The machine this benchmark was written on changes speed by up to 40% from
one few-second stretch to the next (other tenants share its cores), which
swamps the differences a change to the program makes.  So every timed op is
paired with a run of fixed reference work just before and just after it, and
its time is reported at reference speed::

    reported = measured * NOMINAL / mean(reference before, reference after)

that is, in seconds on a machine where the reference takes NOMINAL seconds.
The reference is pure Python and imports nothing from the repository, so no
change to the program moves it.  A subprocess op is paired with a fresh
interpreter running ``work(SUBPROCESS_N)``; an in-process op with
``work(IN_PROCESS_N)`` in the same process.
"""

from __future__ import annotations

import inspect
from time import perf_counter


def work(n: int) -> int:
    table = {}
    total = 0
    for i in range(n):
        table[i & 1023] = total
        total += i * i % 7
    return total


SUBPROCESS_N = 200_000
SUBPROCESS_NOMINAL_S = 0.1
SUBPROCESS_CODE = f"{inspect.getsource(work)}\nwork({SUBPROCESS_N})"
IN_PROCESS_N = 20_000
IN_PROCESS_NOMINAL_S = 0.0025


def in_process_ref() -> float:
    start = perf_counter()
    work(IN_PROCESS_N)
    return perf_counter() - start


def scale(measured: float, ref_before: float, ref_after: float, nominal: float) -> float:
    return measured * nominal / ((ref_before + ref_after) / 2)
