"""What the benchmark measures and how a run is laid out.

The workloads, metric names, units and bounds are read from ``BENCHMARK.json``
at the repository root, their single source. The rest of this module holds the
run's layout. It imports nothing outside the standard library, so the
orchestrating process never loads numpy.
"""

from __future__ import annotations

import json
import os

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    _DOC = json.load(_fh)

# Seconds each run measures: split over the measuring processes, or with
# --trace 1 between an untraced and a traced half in one process.
RUN_SECONDS: int = _DOC["run_seconds"]
WORKLOADS: list[str] = [w["name"] for w in _DOC["workloads"]]
# Metric name -> unit.
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in _DOC["end_to_end"]}
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in _DOC["per_layer"]}

# Seed whose outputs are pinned by the recorded references in reference/.
DEFAULT_SEED = 0

# A process keeps one speed level for most of its life, and the levels of two
# processes with the same code and inputs differed by up to a third on the
# reference machine. So an untraced run splits its seconds over several
# measuring processes. train64 gets one: a process times whole train_toy calls
# of 30 steps (12-20 s each), and its long calls put the medians of two such
# processes within 5% of each other in most runs.
MEASURING_PROCESSES = {"train64": 1, "infer256": 3, "attn256": 3}

# Set-up is timed in this many fresh processes (the measuring ones among them)
# and reported as the median, because import time is only observable once per
# process.
SETUP_SAMPLES = 5

# Median seconds of probe.py on the reference machine. An untraced run times
# the probe in a fresh process before each of its workers (SETUP_SAMPLES + 1
# times), and scales setup_s and step_s_p50 by this over the run's median
# probe. The reference machine's speed drifts by 20-30% over tens of minutes,
# and set-up, step and probe times drift together, so the scaled times compare
# runs made at different times (README.md gives the figures).
PROBE_REFERENCE_S = 0.65

# Address-space cap for every worker process. The largest workload (infer256)
# peaks near 1.4 GiB of virtual memory on the reference machine; the cap turns a
# memory blow-up into a MemoryError, counted as a failed step, instead of
# exhausting the machine.
WORKER_ADDRESS_SPACE_BYTES = 4 * 1024**3


def run_deadline_s(seconds: float) -> float:
    """Seconds after which a run is abandoned (no result, non-zero exit).

    The measuring processes take about --seconds plus a step or a train_toy
    call each beyond their share (infer256: ~8-10 s a step); preparing the
    inputs, the set-up samples and the probes add about 20 s. The fixed 110 s
    plus three times the measured seconds gives 155 s at the default 15 s.
    """
    return 110.0 + 3.0 * seconds


UNET_STAGES = ("head", "enc1", "enc2", "enc3", "enc4", "down",
               "dec3", "dec2", "dec1", "tail")

CONV_KERNELS = (1, 3, 4, 7)
