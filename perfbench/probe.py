"""Machine-speed probe: a fixed piece of work that does not touch linpaint.

    python3 perfbench/probe.py

It imports numpy and scipy.special, as every set-up does, and then runs a
fixed mix of the kinds of work the workloads do: a BLAS matrix product,
elementwise passes over a few MB, many calls on small arrays, and plain Python
bytecode. It prints the seconds the whole took as one JSON object. run.py
times it in fresh processes between its workers, and scales its time metrics
by it (see README.md), so that a change in the machine's speed during the
day cancels while a change in linpaint does not: nothing here imports
linpaint.
"""

from __future__ import annotations

import json
import time

start = time.perf_counter()

import numpy as np  # noqa: E402  (the import is part of the probe)
import scipy.special  # noqa: E402, F401

rng = np.random.default_rng(0)
a = rng.standard_normal((256, 256))
b = rng.standard_normal((256, 8192))
x = rng.standard_normal((32, 128, 128))
small = [rng.standard_normal((16, 16)) for _ in range(8)]
for _ in range(3):
    c = a @ b
    y = np.tanh(x) * x + np.pad(x, ((0, 0), (1, 1), (1, 1)))[:, 2:, 1:-1]
    s = y.sum(axis=0)
    for i in range(1500):
        u = small[i % 8] @ small[(i + 1) % 8]
        u = np.maximum(u, 0.0) + 1.0
    acc = 0
    for i in range(100000):
        acc += i * i % 7

print(json.dumps({"probe_s": time.perf_counter() - start}))
