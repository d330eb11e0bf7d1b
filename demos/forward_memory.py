"""Memory and time of the tape-free forward pass, from 64x64 to 512x512, and
of one taped attention layer at the four encoder shapes of the 256x256 model.

Every row is measured in 3 fresh child processes and reports the median
and the range [min, max] of their resident-set peaks (``ru_maxrss``) and
seconds; the ``tracemalloc`` figures repeat from process to process, so
each row gives their median.

* Forward rows: the seeded full-depth C=32 model runs three forward passes
  (the first one cold), then a fourth under ``tracemalloc`` for the peak of
  the memory numpy allocates. Seconds per multiply-accumulate divide the
  median warm forward by ``cost.cost_report``'s MACs at that size.
* Taped attention rows: one ``gated_attention`` layer (residual mode, gated)
  at the (channels, side, heads) of encoder levels 1-4 runs a taped forward
  and backward of sum(y * r) three times, then once more under
  ``tracemalloc``: the bytes held after the forward and the peak over the
  forward and backward, both above what existed before the forward.

The rows go to BENCH_forward_memory.json in the working directory, stamped
with nproc, the BLAS, numpy and the git revision.

Run: python demos/forward_memory.py [--quick]
     (--quick: 64x64 and 128x128, and the two smallest attention shapes)
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from linpaint.attention import AttentionConfig, ProjectionSet, gated_attention
from linpaint.autograd import Parameter
from linpaint.cost import cost_report
from linpaint.tensor import Tape, Tensor, hadamard, make_rng, sum_all
from linpaint.unet import InpaintingUNet, ModelConfig

SIZES = (64, 128, 256, 512)
QUICK_SIZES = (64, 128)
# (channels, side, heads) of encoder levels 1-4 of the C=32 model at 256x256.
ATTENTION_SHAPES = ((32, 256, 1), (64, 128, 2), (128, 64, 4), (256, 32, 8))
QUICK_ATTENTION_SHAPES = ATTENTION_SHAPES[2:]
PROCESSES = 3
OUT = "BENCH_forward_memory.json"


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_forward(size: int) -> dict:
    """One process's figures for one size."""
    config = ModelConfig()
    model = InpaintingUNet(config, make_rng(0))
    im = Tensor(make_rng(1).uniform(-1.0, 1.0, size=(3, size, size)))
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        model.forward(im)
        seconds.append(time.perf_counter() - start)
    rss = _rss_mib()
    tracemalloc.start()
    model.forward(im)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"first_forward_s": seconds[0], "forward_s": statistics.median(seconds[1:]),
            "ru_maxrss_mib": rss, "tracemalloc_peak_mib": peak / 2**20}


def measure_attention(channels: int, side: int, heads: int) -> dict:
    """One process's figures for one taped attention layer."""
    x = Parameter(make_rng(0).normal(size=(channels, side, side)))
    r = Tensor(make_rng(1).normal(size=(channels, side, side)))
    proj = ProjectionSet.init(channels, make_rng(2))
    cfg = AttentionConfig(channels=channels, heads=heads, taylor_mode="residual")
    params = [x] + proj.parameters()

    def step() -> tuple[int, int]:
        with Tape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            loss = sum_all(hadamard(gated_attention(x, proj, cfg), r))
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        for p in params:
            p.grad = None
        return held, peak

    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        step()
        seconds.append(time.perf_counter() - start)
    rss = _rss_mib()
    tracemalloc.start()
    held, peak = step()
    tracemalloc.stop()
    return {"step_s": statistics.median(seconds), "ru_maxrss_mib": rss,
            "held_after_forward_mib": held / 2**20, "tracemalloc_peak_mib": peak / 2**20}


def summarize(samples: list[dict], spread: tuple[str, ...]) -> dict:
    """The median of every figure over the processes, and the range of those
    named in ``spread``."""
    row = {"processes": len(samples)}
    for key in samples[0]:
        values = [s[key] for s in samples]
        row[key] = round(statistics.median(values), 4)
        if key in spread:
            row[key + "_range"] = [round(min(values), 4), round(max(values), 4)]
    return row


def in_children(*args: str) -> list[dict]:
    """The figures of ``PROCESSES`` fresh child processes, one after another."""
    samples = []
    for _ in range(PROCESSES):
        child = subprocess.run([sys.executable, __file__, "--child", *args],
                               capture_output=True, text=True, check=True)
        samples.append(json.loads(child.stdout.splitlines()[-1]))
    return samples


def stamp() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=Path(__file__).resolve().parent, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    return {"nproc": os.cpu_count(), "blas": blas, "numpy": np.__version__,
            "python": platform.python_version(), "machine": platform.machine(),
            "git_revision": rev or None}


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        shape = [int(a) for a in sys.argv[2:]]
        figures = measure_forward(*shape) if len(shape) == 1 else measure_attention(*shape)
        print(json.dumps(figures))
        return
    quick = "--quick" in sys.argv
    rows = []
    for size in QUICK_SIZES if quick else SIZES:
        macs = cost_report(ModelConfig(), size, size).total_macs
        r = {"size": size, "macs": macs,
             **summarize(in_children(str(size)),
                         ("first_forward_s", "forward_s", "ru_maxrss_mib"))}
        r["ns_per_mac"] = round(r["forward_s"] / macs * 1e9, 4)
        rows.append(r)
        print(f"{size}x{size}: forward {r['forward_s']:.3f} s {r['forward_s_range']} "
              f"(first {r['first_forward_s']:.3f} s), {r['ns_per_mac']:.3f} ns/MAC, "
              f"ru_maxrss {r['ru_maxrss_mib']:.1f} MiB {r['ru_maxrss_mib_range']}, "
              f"tracemalloc peak {r['tracemalloc_peak_mib']:.1f} MiB")
    attention_rows = []
    for c, side, heads in QUICK_ATTENTION_SHAPES if quick else ATTENTION_SHAPES:
        r = {"channels": c, "side": side, "heads": heads,
             **summarize(in_children(str(c), str(side), str(heads)),
                         ("step_s", "ru_maxrss_mib"))}
        attention_rows.append(r)
        print(f"attention {c}x{side}x{side}, {heads} heads: taped step {r['step_s']:.3f} s "
              f"{r['step_s_range']}, ru_maxrss {r['ru_maxrss_mib']:.1f} MiB "
              f"{r['ru_maxrss_mib_range']}, held after forward "
              f"{r['held_after_forward_mib']:.1f} MiB, tracemalloc peak "
              f"{r['tracemalloc_peak_mib']:.1f} MiB")
    result = {"what": "rows: tape-free forward of the seed-0 C=32 model (ModelConfig()) on a "
                      "seed-1 uniform image; taped_attention_rows: one gated_attention layer "
                      "(residual mode), taped forward and backward of sum(y * r); each row "
                      f"is the median (and range) of {PROCESSES} fresh processes",
              "stamp": stamp(), "rows": rows, "taped_attention_rows": attention_rows}
    with open(OUT, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
