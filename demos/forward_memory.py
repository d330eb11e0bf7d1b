"""Memory and time of the tape-free forward pass, from 64x64 to 512x512.

For the seeded full-depth C=32 model, each image size runs in a fresh child
process: three forward passes (the first one cold), the peak resident set of
the process (``ru_maxrss``), then a fourth forward under ``tracemalloc`` for
the peak of the memory numpy allocates. Seconds per multiply-accumulate
divide the median warm forward by ``cost.cost_report``'s MACs at that size.
The rows go to BENCH_forward_memory.json in the working directory, stamped
with nproc, the BLAS, numpy and the git revision.

Run: python demos/forward_memory.py [--quick]   (--quick: 64x64 and 128x128 only)
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

from linpaint.cost import cost_report
from linpaint.tensor import Tensor, make_rng
from linpaint.unet import InpaintingUNet, ModelConfig

SIZES = (64, 128, 256, 512)
QUICK_SIZES = (64, 128)
OUT = "BENCH_forward_memory.json"


def measure(size: int) -> dict:
    """One size's row, measured in this process."""
    config = ModelConfig()
    model = InpaintingUNet(config, make_rng(0))
    im = Tensor(make_rng(1).uniform(-1.0, 1.0, size=(3, size, size)))
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        model.forward(im)
        seconds.append(time.perf_counter() - start)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    model.forward(im)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    macs = cost_report(config, size, size).total_macs
    warm = statistics.median(seconds[1:])
    return {"size": size, "macs": macs, "first_forward_s": round(seconds[0], 4),
            "forward_s": round(warm, 4), "ns_per_mac": round(warm / macs * 1e9, 4),
            "ru_maxrss_mib": round(rss, 1), "tracemalloc_peak_mib": round(peak / 2**20, 1)}


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
        print(json.dumps(measure(int(sys.argv[2]))))
        return
    sizes = QUICK_SIZES if "--quick" in sys.argv else SIZES
    rows = []
    for size in sizes:
        child = subprocess.run([sys.executable, __file__, "--child", str(size)],
                               capture_output=True, text=True, check=True)
        rows.append(json.loads(child.stdout.splitlines()[-1]))
        r = rows[-1]
        print(f"{size}x{size}: forward {r['forward_s']:.3f} s (first {r['first_forward_s']:.3f} s), "
              f"{r['ns_per_mac']:.3f} ns/MAC, ru_maxrss {r['ru_maxrss_mib']:.1f} MiB, "
              f"tracemalloc peak {r['tracemalloc_peak_mib']:.1f} MiB")
    result = {"what": "tape-free forward of the seed-0 C=32 model (ModelConfig()) on a "
                      "seed-1 uniform image; one fresh process per size",
              "stamp": stamp(), "rows": rows}
    with open(OUT, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
