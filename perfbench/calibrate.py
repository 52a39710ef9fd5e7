"""Calibration probe: a fixed task that uses no ``tabalg`` code.

The benchmark times this process between its own commands and divides its
timings by the run's median calibration time, so that a host that runs
everything slower for minutes at a time does not read as a slower
``tabalg``.  The task mixes what the workloads spend their time on:
interpreter start and ``import numpy``, pure-Python integer and dict work,
and an int64 ``einsum``.  It must never change, or calibrated figures stop
being comparable across commits.
"""

import numpy as np

rows: dict[int, int] = {}
acc = 0
for i in range(50_000):
    acc += i * i % 7
    rows[i % 997] = rows.get(i % 997, 0) + acc % 3
t = (np.arange(20**3, dtype=np.int64) % 5).reshape(20, 20, 20)
lhs = np.einsum("ijm,mln->ijln", t, t)
if int(lhs.sum()) + acc + len(rows) <= 0:
    raise SystemExit(1)
