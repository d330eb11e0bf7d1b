"""Short-run self-test of the benchmark. Run it from the repository root:

    python3 perfbench/selftest.py

It checks that
  * every workload, run for one second with --trace 0 and with --trace 1,
    prints exactly the metrics BENCHMARK.json names, and the traced run passes
    its checks with trace.coverage >= 0.9;
  * a corrupted reference (train64's loss rows, infer256's output digest)
    turns into failed steps, "correct": false and a non-zero exit;
  * run.py exits non-zero without printing a result where there are no
    linpaint sources.
It takes about three minutes on two cores and exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench_work", "selftest")


def _run(cwd: str, *args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout + proc.stderr


def _corrupt_references(target: str) -> None:
    shutil.copytree(os.path.join(HERE, "reference"), target)
    path = os.path.join(target, "train64.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["rows"][3][0] *= 1.0 + 1e-5
    with open(path, "w") as fh:
        json.dump(doc, fh)
    path = os.path.join(target, "infer256.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["digest"]["mean"][0] += 1e-6
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    corrupted = os.path.join(SCRATCH, "reference")
    _corrupt_references(corrupted)
    end_to_end = set(spec.END_TO_END)
    per_layer = set(spec.PER_LAYER)

    for workload in spec.WORKLOADS:
        known = len(problems)
        # With --trace 0 the default seed runs against the corrupted reference
        # (attn256 has none: it checks against the quadratic oracle).
        has_reference = os.path.exists(os.path.join(HERE, "reference", f"{workload}.json"))
        extra = ["--reference-dir", corrupted] if has_reference else []
        code, result, out = _run(ROOT, "--workload", workload, "--seconds", "1",
                                 "--trace", "0", *extra)
        expect(result is not None and set(result["metrics"]) == end_to_end,
               f"{workload} --trace 0 prints every end-to-end metric")
        if has_reference:
            expect(result is not None and result["failed"] > 0 and not result["correct"]
                   and code != 0, f"{workload}: a corrupted reference counts as failed steps")
        else:
            expect(result is not None and result["correct"] and code == 0,
                   f"{workload} --trace 0 passes its checks")
        code, result, out = _run(ROOT, "--workload", workload, "--seconds", "1",
                                 "--trace", "1")
        expect(result is not None and set(result["metrics"]) == per_layer,
               f"{workload} --trace 1 prints every per-layer metric")
        expect(result is not None and result["correct"] and result["failed"] == 0
               and code == 0, f"{workload} --trace 1 passes its checks")
        coverage = result["metrics"]["trace.coverage"]["value"] if result else 0.0
        expect(coverage >= 0.9, f"{workload} trace.coverage {coverage:.3f} >= 0.9")
        if len(problems) > known:
            print(out[-3000:])

    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = _run(bare, "--workload", spec.WORKLOADS[0], "--seconds", "1")
    expect(code != 0 and result is None,
           "without linpaint sources run.py exits non-zero and prints no result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
