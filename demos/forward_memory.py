"""Memory and time of the tape-free forward pass, from 64x64 to 512x512, of
one taped attention layer at the four encoder shapes of the 256x256 model,
and of the phases of one training step at the 64x64 benchmark config.

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
* Train-step rows: ``cli.train_toy`` at the config of perfbench's
  ``train64`` (64x64, C=16, one block per level, discriminator width 64,
  lr 1e-3; a seed-1 uniform image with a seed-2 30% scattered mask) runs
  ``TRAIN_ITERS`` iterations; the process's ``ru_maxrss`` is read after
  that run. A second run goes under ``tracemalloc``, from before the model
  is built: after the discriminator's backward, its AdamW step, the
  generator's backward and its AdamW step of iteration 2 (0-based, the
  CSV's ``iter`` column), it records the current bytes and the peak since
  the previous of these points (the first covers iteration 2's taped
  generator and discriminator forwards).
* Paper-resolution step rows: one ``cli.train_toy`` iteration of the seed-0
  full-depth C=32 model (``ModelConfig()``, the default discriminator and
  learning rate; a seed-1 uniform image with a seed-2 30% scattered mask)
  at 128x128 and 256x256, each in one child process whose address space
  (``RLIMIT_AS``, set before Python starts) is capped at the row's limit:
  whether the iteration completed, its seconds and the child's
  ``ru_maxrss``. A child that runs out of address space reports the
  ``MemoryError``. This is the budget check of training at the paper's
  resolution.

The rows go to BENCH_forward_memory.json in the working directory, stamped
with nproc, the BLAS, numpy, the git revision and whether the working tree
differed from it (``dirty``: ``git status --porcelain`` printed anything).

Run: python demos/forward_memory.py [--quick]
     (--quick: 64x64 and 128x128, the two smallest attention shapes, the
     train-step rows and the 128x128 paper-resolution step)
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

from linpaint import cli
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
# Iterations of the train-step run; the phases of the last one are recorded.
TRAIN_ITERS = 3
TRAIN_PHASES = ("d_backward", "d_adamw", "g_backward", "g_adamw")
PROCESSES = 3
# (side, RLIMIT_AS in MiB) of the paper-resolution step rows.
STEP_LIMITS = ((128, 2048), (256, 2048), (256, 1536), (256, 1280), (256, 1152))
QUICK_STEP_LIMITS = STEP_LIMITS[:1]
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


def measure_train() -> dict:
    """One process's figures for the train-step rows."""
    run = cli.RunConfig(model=ModelConfig(base_channels=16, block_counts=(1,) * 7,
                                          heads_per_level=(1, 2, 4, 8, 4, 2, 1)),
                        seed=0, iters=TRAIN_ITERS, lr=1e-3, disc_width=64)
    image = make_rng(1).uniform(0.0, 1.0, size=(3, 64, 64))
    mask = np.ones(64 * 64)
    mask[make_rng(2).choice(mask.size, size=round(0.3 * mask.size), replace=False)] = 0.0
    mask = mask.reshape(1, 64, 64)
    start = time.perf_counter()
    cli.train_toy(run, image, mask, None, None)
    figures = {"train_toy_s": time.perf_counter() - start, "ru_maxrss_mib": _rss_mib()}

    # The calls train_toy makes, in order, each iteration: the discriminator's
    # backward and AdamW step, then the generator's.
    marks = []

    def marked(fn):
        def call(*args, **kwargs):
            fn(*args, **kwargs)
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        return call

    backward, adamw = Tape.backward, cli.adamw_step
    Tape.backward, cli.adamw_step = marked(backward), marked(adamw)
    tracemalloc.start()
    try:
        cli.train_toy(run, image, mask, None, None)
    finally:
        tracemalloc.stop()
        Tape.backward, cli.adamw_step = backward, adamw
    last = marks[len(TRAIN_PHASES) * (TRAIN_ITERS - 1):]
    for phase, (current, peak) in zip(TRAIN_PHASES, last, strict=True):
        figures[f"{phase}_current_mib"] = current / 2**20
        figures[f"{phase}_peak_mib"] = peak / 2**20
    return figures


def _scattered_mask(side: int) -> np.ndarray:
    """A seed-2 1 x side x side mask with 30% of its pixels missing."""
    mask = np.ones(side * side)
    mask[make_rng(2).choice(mask.size, size=round(0.3 * mask.size), replace=False)] = 0.0
    return mask.reshape(1, side, side)


def measure_paper_step(side: int) -> dict:
    """One process's figures for one C=32 train_toy iteration."""
    run = cli.RunConfig(model=ModelConfig(), seed=0, iters=1)
    image = make_rng(1).uniform(0.0, 1.0, size=(3, side, side))
    start = time.perf_counter()
    try:
        cli.train_toy(run, image, _scattered_mask(side), None, None)
        error = None
    except MemoryError as exc:
        error = f"MemoryError: {exc}"
    return {"completed": error is None, "seconds": time.perf_counter() - start,
            "ru_maxrss_mib": _rss_mib(), "error": error}


def paper_step_in_child(side: int, limit_mib: int) -> dict:
    """``measure_paper_step`` in a fresh child whose address space is capped
    at ``limit_mib`` MiB from before Python starts."""
    limit = limit_mib * 2**20

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    child = subprocess.run([sys.executable, __file__, "--child", "step", str(side)],
                           capture_output=True, text=True, preexec_fn=cap)
    row = {"side": side, "rlimit_as_mib": limit_mib}
    lines = child.stdout.splitlines()
    if child.returncode == 0 and lines:
        return {**row, **json.loads(lines[-1])}
    return {**row, "completed": False, "seconds": None, "ru_maxrss_mib": None,
            "error": f"exit {child.returncode}: {child.stderr.strip()[-300:]}"}


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
    def git(*args: str) -> str | None:
        try:
            run = subprocess.run(["git", *args], capture_output=True, text=True,
                                 cwd=Path(__file__).resolve().parent, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return run.stdout if run.returncode == 0 else None

    rev, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    return {"nproc": os.cpu_count(), "blas": blas, "numpy": np.__version__,
            "python": platform.python_version(), "machine": platform.machine(),
            "git_revision": (rev or "").strip() or None,
            "dirty": None if status is None else status.strip() != ""}


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        if sys.argv[2:] == ["train"]:
            print(json.dumps(measure_train()))
            return
        if sys.argv[2:3] == ["step"]:
            print(json.dumps(measure_paper_step(int(sys.argv[3]))))
            return
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
    train = summarize(in_children("train"), ("train_toy_s", "ru_maxrss_mib"))
    train_rows = [{"after": phase, "tracemalloc_current_mib": train[f"{phase}_current_mib"],
                   "tracemalloc_peak_mib": train[f"{phase}_peak_mib"]} for phase in TRAIN_PHASES]
    print(f"train step ({TRAIN_ITERS} iterations): ru_maxrss {train['ru_maxrss_mib']:.1f} MiB "
          f"{train['ru_maxrss_mib_range']}, train_toy {train['train_toy_s']:.2f} s; "
          + ", ".join(f"after {r['after']} {r['tracemalloc_current_mib']:.1f} MiB "
                      f"(peak {r['tracemalloc_peak_mib']:.1f})" for r in train_rows))
    step_rows = []
    for side, limit_mib in QUICK_STEP_LIMITS if quick else STEP_LIMITS:
        r = paper_step_in_child(side, limit_mib)
        step_rows.append(r)
        print(f"C=32 train step at {side}x{side} under RLIMIT_AS {limit_mib} MiB: "
              + (f"completed in {r['seconds']:.1f} s, ru_maxrss {r['ru_maxrss_mib']:.1f} MiB"
                 if r["completed"] else f"failed ({r['error']})"))
    result = {"what": "rows: tape-free forward of the seed-0 C=32 model (ModelConfig()) on a "
                      "seed-1 uniform image; taped_attention_rows: one gated_attention layer "
                      "(residual mode), taped forward and backward of sum(y * r); "
                      f"train_step: {TRAIN_ITERS} train_toy iterations at the train64 config, "
                      "tracemalloc after each phase of iteration 2; each of these rows "
                      f"is the median (and range) of {PROCESSES} fresh processes; "
                      "paper_resolution_step: one C=32 train_toy iteration in one child "
                      "process under an RLIMIT_AS cap per row",
              "stamp": stamp(), "rows": rows, "taped_attention_rows": attention_rows,
              "train_step": {"iters": TRAIN_ITERS, "processes": train["processes"],
                             "ru_maxrss_mib": train["ru_maxrss_mib"],
                             "ru_maxrss_mib_range": train["ru_maxrss_mib_range"],
                             "train_toy_s": train["train_toy_s"],
                             "train_toy_s_range": train["train_toy_s_range"],
                             "rows": train_rows},
              "paper_resolution_step": step_rows}
    with open(OUT, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
