"""Run one linpaint benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train64|infer256|attn256 \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root: the package is imported from ./src. Each
phase runs in its own worker process (perfbench/worker.py) with at most nproc
BLAS threads and a capped address space: one prepares the inputs, a few time
set-up alone, and one to three (one with --trace 1) set up, warm up and time
steps for their share of --seconds. Without --trace, a machine-speed probe
(perfbench/probe.py) runs before each of those, and the set-up and step times
are scaled to the reference machine's speed by it. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with --trace 0, the per-layer metrics
(from a traced second half of the run) with --trace 1. The lines before it
give every metric with its unit, the unscaled times, the step-time tail, the
failure share and the machine and code versions; the same record, and with
--trace 1 the spans, go to .perfbench_work/results/.

    python3 perfbench/run.py --workload W --record-reference
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(RuntimeError):
    """The run could not produce a result."""


def _src_digest(src: str) -> str:
    """sha256 over the package sources, a code version that needs no git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_revision(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _tail(values: list[float]) -> dict | None:
    """Highest percentile with at least 10 samples beyond it, or None if n < 11."""
    n = len(values)
    if n < 11:
        return None
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


class Runner:
    def __init__(self, root: str, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.deadline_s = spec.run_deadline_s(args.seconds)
        self.deadline = time.monotonic() + self.deadline_s
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        base = os.path.join(root, ".perfbench_work")
        self.workdir = os.path.join(base, "run-" + tag)
        self.results = os.path.join(base, "results")
        self.tag = tag
        threads = str(len(os.sched_getaffinity(0)))
        # Bytecode goes to a cache of the benchmark's own, which the prepare
        # phase fills: every set-up sample then imports the same warm bytecode
        # and none compiles the package.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads,
                        PYTHONPYCACHEPREFIX=os.path.join(base, "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def _spawn(self, what: str, *args: str) -> str:
        """Run ``python3 <args>`` in its own process before the deadline; its stdout."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"deadline of {self.deadline_s:.0f} s passed before {what}")
        try:
            proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} passed the {self.deadline_s:.0f} s deadline "
                             "and was killed") from None
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with {proc.returncode}:\n" + proc.stderr[-4000:])
        return proc.stdout

    def worker(self, phase: str, out: str | None = None, seconds: float | None = None,
               expected: str | None = None) -> dict:
        out = out or os.path.join(self.workdir, f"{phase}.json")
        seconds = self.args.seconds if seconds is None else seconds
        self._spawn(f"{phase} worker", os.path.join(HERE, "worker.py"), "--phase", phase,
                    "--workload", self.args.workload, "--seed", str(self.args.seed),
                    "--seconds", repr(seconds), "--trace", str(self.args.trace),
                    "--workdir", self.workdir, "--reference-dir", self.args.reference_dir,
                    "--out", out, *(["--expected", expected] if expected else []))
        with open(out) as fh:
            return json.load(fh)

    def probe(self) -> float:
        """Seconds of one machine-speed probe (probe.py) in a fresh process."""
        return json.loads(self._spawn("probe", os.path.join(HERE, "probe.py")))["probe_s"]

    def run(self) -> dict:
        """Untraced: the seconds are split over several measuring workers, because
        a process's speed stays at one level for most of its life and differs
        between processes; each later worker must repeat the first one's
        outputs. A probe runs before each worker. Traced: one worker, so that
        the untraced and traced halves share a process, and no probe."""
        measuring = 1 if self.args.trace else spec.MEASURING_PROCESSES[self.args.workload]
        os.makedirs(self.workdir, exist_ok=True)
        os.makedirs(self.results, exist_ok=True)
        probes: list[float] = []
        setups: list[float] = []
        try:
            if not self.args.trace:
                probes.append(self.probe())
            self.worker("prepare")
            if not self.args.trace:
                for _ in range(spec.SETUP_SAMPLES - measuring):
                    probes.append(self.probe())
                    setups.append(self.worker("setup")["setup_s"])
            seconds = self.args.seconds if self.args.trace else self.args.seconds / measuring
            expected = os.path.join(self.workdir, "expected.json")
            mains = []
            for i in range(measuring):
                if not self.args.trace:
                    probes.append(self.probe())
                mains.append(self.worker(
                    "run", os.path.join(self.results, f"{self.tag}.worker{i}.json"), seconds,
                    expected if mains else None))
                if len(mains) == 1:
                    with open(expected, "w") as fh:
                        json.dump(mains[0]["expected"], fh)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return self.summarize(mains, setups + [m["setup_s"] for m in mains], probes)

    def summarize(self, mains: list[dict], setups: list[float],
                  probes: list[float]) -> dict:
        def pooled(key: str) -> list[dict]:
            return [s for m in mains for s in m[key]]

        all_steps = pooled("warmup") + pooled("steps") + pooled("traced_steps")
        failures = [s["error"] for s in all_steps if s["error"] is not None]
        # A step whose output check failed still has a duration; one that raised has none.
        per_process = [[s["seconds"] for s in m["steps"] if s["seconds"] is not None]
                       for m in mains]
        per_process = [p for p in per_process if p]
        timed = [t for p in per_process for t in p]
        if not timed:
            raise BenchError("no timed step completed: "
                             + (failures[0] if failures else "no steps ran"))
        main = mains[0]
        record = {
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "measuring_processes": len(mains),
            "stamp": dict(main["stamp"], git_revision=_git_revision(self.root),
                          src_sha256=_src_digest(os.path.join(self.root, "src")),
                          seed=self.args.seed),
            "attempted": len(all_steps), "failed": len(failures),
            "failed_frac": len(failures) / len(all_steps),
            "failures": failures[:5],
            "setup_samples_s": setups, "probe_samples_s": probes,
            "step_seconds": timed,
            "process_step_s_p50": [statistics.median(p) for p in per_process],
            "step_s_tail": _tail(timed),
        }
        units = {**spec.END_TO_END, **spec.PER_LAYER}
        if self.args.trace:
            values = main["per_layer"]
            record["macs_per_step"] = main["macs_per_step"]
            record["spans_file"] = os.path.relpath(main["spans_file"], self.root)
        else:
            # The median over the measuring processes of each one's median
            # step: a process that runs slow throughout moves it less than it
            # would move the pooled median.
            raw = {"setup_s": statistics.median(setups),
                   "step_s_p50": statistics.median(record["process_step_s_p50"])}
            record["raw_s"] = raw
            record["speed_scale"] = spec.PROBE_REFERENCE_S / statistics.median(probes)
            values = {name: value * record["speed_scale"] for name, value in raw.items()}
            values["peak_rss_mb"] = max(m["peak_rss_mb"] for m in mains)
        record["metrics"] = {name: {"value": values[name], "unit": units[name]}
                             for name in values}
        record["correct"] = not failures
        with open(os.path.join(self.results, self.tag + ".json"), "w") as fh:
            json.dump(record, fh, indent=1)
        return record


def _report(record: dict) -> None:
    print(f"perfbench {record['workload']}: seed {record['seed']}, "
          f"{record['seconds']:g} s, trace {record['trace']}")
    print("stamp: " + json.dumps(record["stamp"], sort_keys=True))
    for name, m in record["metrics"].items():
        line = f"  {name:<40} {m['value']:>16.6g} {m['unit']}"
        macs = record.get("macs_per_step", {}).get(name.rsplit(".", 1)[0])
        if name.endswith("gmac_per_s") and macs:
            line += f"  ({macs / 1e9:.4g} GMAC per step)"
        print(line)
    if not record["trace"]:
        tail = record["step_s_tail"]
        if tail is None:
            print(f"  {'step_s_tail':<40} {'n/a':>16} s  "
                  f"(needs >= 11 timed steps, ran {len(record['step_seconds'])})")
        else:
            print(f"  {'step_s_tail':<40} {tail['value']:>16.6g} s  "
                  f"(p{tail['percentile']:.1f} of {tail['samples']} steps)")
        for name, value in record["raw_s"].items():
            print(f"  {name + ' (unscaled)':<40} {value:>16.6g} s")
        print(f"  {'setup samples':<40} "
              + " ".join(f"{v:.4f}" for v in record["setup_samples_s"]) + " s")
        print(f"  {'probe samples':<40} "
              + " ".join(f"{v:.4f}" for v in record["probe_samples_s"])
              + f" s  (scale {record['speed_scale']:.4f})")
    print(f"  {'failed_frac':<40} {record['failed_frac']:>16.6g} "
          f"({record['failed']}/{record['attempted']} steps)")
    for failure in record["failures"]:
        print(f"  failure: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-dir", default=os.path.join(HERE, "reference"),
                        help="recorded references for the default seed")
    parser.add_argument("--record-reference", action="store_true",
                        help="record the default seed's reference for --workload")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(root, "src", "linpaint", "__init__.py")):
        print(f"error: no linpaint sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2

    if args.record_reference:
        args.seed = spec.DEFAULT_SEED
    runner = Runner(root, args)
    try:
        if args.record_reference:
            os.makedirs(runner.workdir, exist_ok=True)
            try:
                print("wrote " + runner.worker("record")["reference"])
            finally:
                shutil.rmtree(runner.workdir, ignore_errors=True)
            return 0
        record = runner.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
