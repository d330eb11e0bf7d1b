"""One benchmark process; run.py starts it once per phase and reads its JSON result.

Phases:
  prepare  write the workload's input files (untimed)
  setup    import linpaint and set the workload up once; report the seconds
  run      set up, warm up, then time steps for --seconds (with --trace 1, half
           the time untraced and half traced) and check every step
  record   write the reference for the default seed to --reference-dir

Only the standard library is imported before the clock starts, so the
reported set-up includes importing numpy, scipy and linpaint.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import spec


def _blas_stamp() -> dict:
    """Name, version and live thread count of the BLAS numpy uses."""
    import ctypes

    import numpy as np

    stamp: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stamp = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                stamp["threads"] = fn()
                return stamp
    stamp["threads"] = None
    return stamp


def _stamp() -> dict:
    import platform

    import numpy as np
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "blas": _blas_stamp(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "machine": platform.machine()}


def _measure(workload, seconds: float, clock) -> list:
    steps = []
    start = time.perf_counter()
    while not steps or time.perf_counter() - start < seconds:
        steps += workload.batch(clock)
    return steps


def _median(values: list[float]) -> float | None:
    import statistics
    return statistics.median(values) if values else None


def _steps_json(steps) -> list[dict]:
    return [{"seconds": s.seconds, "error": s.error} for s in steps]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--phase", required=True, choices=("prepare", "setup", "run", "record"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--reference-dir", required=True)
    parser.add_argument("--expected", default=None,
                        help="outputs an earlier process of this run produced")
    parser.add_argument("--out", required=True, help="where to write the JSON result")
    args = parser.parse_args()

    limit = spec.WORKER_ADDRESS_SPACE_BYTES
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    import linpaint.cli  # noqa: F401  (the package's import is part of set-up)
    import_s = time.perf_counter() - start

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(linpaint.__file__).startswith(src + os.sep):
        print(f"linpaint was imported from {linpaint.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    from tracing import SETUP_STEP, StepClock, Tracer, per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference_dir = None if args.phase == "record" else args.reference_dir
    workload = WORKLOADS[args.workload](args.seed, args.workdir, reference_dir)
    result: dict = {}

    if args.phase == "prepare":
        workload.prepare()
    elif args.phase == "setup":
        result["setup_s"] = import_s + workload.set_up()
    elif args.phase == "record":
        os.makedirs(args.reference_dir, exist_ok=True)
        path = os.path.join(args.reference_dir, f"{args.workload}.json")
        with open(path, "w") as fh:
            json.dump(workload.record(), fh, indent=1)
            fh.write("\n")
        result["reference"] = path
    else:
        if args.expected and not workload.expected:
            with open(args.expected) as fh:
                workload.expected = json.load(fh)
        result["setup_s"] = import_s + workload.set_up()
        result["warmup"] = _steps_json(workload.warm_up(StepClock()))
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        untraced = _measure(workload, untraced_s, StepClock())
        result["steps"] = _steps_json(untraced)
        result["traced_steps"] = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                tracer.step = SETUP_STEP
                workload.set_up()
                tracer.step = None
                traced = _measure(workload, args.seconds / 2, StepClock(tracer))
            finally:
                tracer.uninstall()
            result["traced_steps"] = _steps_json(traced)
            passed = [s for s in traced if s.error is None]
            metrics, macs = per_layer(tracer.spans, passed, workload.macs_by_layer(),
                                      workload.checkpoint_bytes())
            traced_p50 = _median([s.seconds for s in passed])
            untraced_p50 = _median([s.seconds for s in untraced if s.seconds is not None])
            metrics["trace.overhead"] = (traced_p50 / untraced_p50
                                         if traced_p50 and untraced_p50 else 0.0)
            result["per_layer"] = metrics
            result["macs_per_step"] = macs
            spans_path = args.out[:-len(".json")] + ".spans.jsonl"
            tracer.write_spans(spans_path)
            result["spans_file"] = spans_path
        result["expected"] = workload.expected
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["stamp"] = _stamp()

    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
