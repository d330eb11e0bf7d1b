"""The benchmark's workloads, driven only through linpaint's public API.

Each workload builds its inputs from the seed, times its own steps with a
:class:`tracing.StepClock`, and checks every step's output after the clock has
stopped. What the outputs must repeat is kept in ``expected``: the recorded
reference for the default seed, otherwise what the run produced first (the
worker can hand it to the next process). Calls made inside a step go through
module attributes
(``attention.gated_attention``, not a name imported here) so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from scipy.special import erf

import linpaint.attention as attention
import linpaint.autograd as autograd
import linpaint.cli as cli
import linpaint.netpbm as netpbm
import linpaint.tensor as tensor
import linpaint.unet as unet
from linpaint.cost import cost_report

import spec
from tracing import Step, StepClock, layer_macs


def synthetic_image(h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth RGB pattern in [0, 1] (waves, a ramp and a disc), on the 8-bit grid."""
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    phases = rng.uniform(0, 2 * np.pi, size=3)
    freqs = rng.uniform(2.0, 5.0, size=3)
    img = np.stack([
        0.5 + 0.35 * np.sin(freqs[0] * np.pi * xx + phases[0]) * np.cos(2 * np.pi * yy),
        0.4 + 0.4 * xx * yy + 0.15 * np.sin(freqs[1] * np.pi * (xx + yy) + phases[1]),
        0.5 + 0.3 * np.cos(freqs[2] * np.pi * yy + phases[2]) * xx,
    ])
    cy, cx = rng.uniform(0.3, 0.7, size=2)
    disc = ((yy - cy) ** 2 + (xx - cx) ** 2) < 0.04
    img[0][disc] = 0.85
    img[2][disc] = 0.25
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


def scatter_mask(h: int, w: int, missing: float, rng: np.random.Generator) -> np.ndarray:
    """1xHxW mask (1 = valid) with exactly round(missing*H*W) missing pixels."""
    idx = rng.choice(h * w, size=int(round(missing * h * w)), replace=False)
    mask = np.ones(h * w)
    mask[idx] = 0.0
    return mask.reshape(1, h, w)


def _reference(reference_dir: str | None, name: str, seed: int) -> dict | None:
    """The recorded reference for this workload, if the seed is the one it pins."""
    if seed != spec.DEFAULT_SEED or reference_dir is None:
        return None
    with open(os.path.join(reference_dir, f"{name}.json")) as fh:
        return json.load(fh)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# train64


class _LoopStarted(Exception):
    """Raised by the set-up probe to leave train_toy at its first step."""


class Train64:
    """cli.train_toy at the acceptance config, several calls of ITERS steps each.

    A step is one discriminator update plus one generator update. train_toy
    builds its model at every call, so each call restarts from the seed and
    its loss rows must repeat; the time between calls is not step time.
    """

    name = "train64"
    # Masked L1 rises over the first iterations before it falls; at 30 it had
    # fallen to at most 0.73 of its start on each of 21 seeds tried, at 10 it
    # had not on some.
    ITERS = 30
    # Loss rows must match the reference (or, for other seeds, the first call)
    # to this relative tolerance.
    RTOL = 1e-7

    def __init__(self, seed: int, workdir: str, reference_dir: str) -> None:
        rng = tensor.make_rng(seed)
        self.image = synthetic_image(64, 64, rng)
        self.mask = scatter_mask(64, 64, 0.30, rng)
        self.run = cli.RunConfig(
            model=unet.ModelConfig(base_channels=16, block_counts=(1,) * 7,
                                   heads_per_level=(1, 2, 4, 8, 4, 2, 1)),
            seed=seed, lr=1e-3, disc_width=64)
        ref = _reference(reference_dir, self.name, seed)
        self.expected: list[list[float]] = [] if ref is None else ref["rows"]

    def macs_by_layer(self) -> dict[str, int]:
        return layer_macs(cost_report(self.run.model, 64, 64))

    def checkpoint_bytes(self) -> int:
        return 0

    def prepare(self) -> None:
        pass

    @contextmanager
    def _hooks(self, on_loop_start, on_step_end):
        # train_toy builds its feature extractor right before its loop and calls
        # zero_grads once at the end of every iteration: those mark the steps.
        make_fx, zero = cli.RandomConvFeatureExtractor, cli.zero_grads

        def fx_then_mark(*args, **kwargs):
            fx = make_fx(*args, **kwargs)
            on_loop_start()
            return fx

        def zero_then_mark(params):
            autograd.zero_grads(params)
            on_step_end()

        cli.RandomConvFeatureExtractor, cli.zero_grads = fx_then_mark, zero_then_mark
        try:
            yield
        finally:
            cli.RandomConvFeatureExtractor, cli.zero_grads = make_fx, zero

    def set_up(self) -> float:
        """Seconds from entering train_toy to the start of its first step."""
        def stop():
            raise _LoopStarted

        start = time.perf_counter()
        with self._hooks(stop, lambda: None):
            try:
                cli.train_toy(replace(self.run, iters=1), self.image, self.mask, None, None)
            except _LoopStarted:
                return time.perf_counter() - start
        raise RuntimeError("train_toy returned without starting a step")

    def warm_up(self, clock: StepClock) -> list[Step]:
        return self._call(1, clock)

    def batch(self, clock: StepClock) -> list[Step]:
        return self._call(self.ITERS, clock)

    def _call(self, iters: int, clock: StepClock) -> list[Step]:
        steps: list[Step] = []

        def step_end():
            steps.append(clock.end())
            if len(steps) < iters:
                clock.begin()

        with self._hooks(clock.begin, step_end):
            try:
                result = cli.train_toy(replace(self.run, iters=iters), self.image,
                                       self.mask, None, None)
            except Exception as exc:
                failed = clock.cancel(exc) if len(steps) < iters else None
                for s in steps:
                    s.error = _describe(exc)
                return steps + ([failed] if failed else [])
        self._check(result, steps)
        return steps

    def _check(self, result, steps: list[Step]) -> None:
        rows = [[float(v) for v in line.split(",")[1:]] for line in result.csv_rows[1:]]
        for i, (row, step) in enumerate(zip(rows, steps)):
            if not all(math.isfinite(v) for v in row):
                step.error = f"iteration {i}: non-finite loss row {row}"
            elif i < len(self.expected) and (len(row) != len(self.expected[i]) or not all(
                    math.isclose(a, b, rel_tol=self.RTOL, abs_tol=0.0)
                    for a, b in zip(row, self.expected[i]))):
                step.error = (f"iteration {i}: loss row {row} differs from the expected "
                              f"{self.expected[i]} beyond rtol {self.RTOL}")
        self.expected = self.expected + rows[len(self.expected):]
        if len(rows) > 1 and not result.masked_l1_last < result.masked_l1_first:
            for step in steps:
                step.error = step.error or (
                    f"masked L1 did not decrease: {result.masked_l1_first!r} -> "
                    f"{result.masked_l1_last!r}")

    def record(self) -> dict:
        clock = StepClock()
        steps = self._call(self.ITERS, clock)
        errors = [s.error for s in steps if s.error]
        if errors:
            raise RuntimeError(f"cannot record a failing run: {errors[0]}")
        return {"workload": self.name, "seed": spec.DEFAULT_SEED, "iters": self.ITERS,
                "rows": self.expected}


# ---------------------------------------------------------------------------
# infer256


class Infer256:
    """The inpaint command (cli.cmd_inpaint) on the full-depth C=32 model at 256x256.

    The checkpoint (seeded weights) and the PPM/PGM pair are written before
    anything is timed; set-up loads the checkpoint once. A step is one call of
    cmd_inpaint: it reads the pair, runs the forward, composes with the mask
    and writes the PPM. Its load_checkpoint is rebound to return the model
    loaded in set-up, and its write_image to keep the float image it writes.
    """

    name = "infer256"
    SIZE = 256
    # Output digests must match the reference (or, for other seeds, the first
    # step) to this absolute tolerance on [0, 1] pixel values.
    ATOL = 1e-9

    def __init__(self, seed: int, workdir: str, reference_dir: str) -> None:
        self.seed = seed
        self.config = unet.ModelConfig()
        self.ckpt = os.path.join(workdir, "model.ckpt")
        self.args = argparse.Namespace(checkpoint=self.ckpt,
                                       image=os.path.join(workdir, "image.ppm"),
                                       mask=os.path.join(workdir, "mask.pgm"),
                                       out=os.path.join(workdir, "filled.ppm"))
        ref = _reference(reference_dir, self.name, seed)
        self.expected = None if ref is None else ref["digest"]
        self.model = None
        self.inputs: tuple[np.ndarray, np.ndarray] | None = None

    def macs_by_layer(self) -> dict[str, int]:
        return layer_macs(cost_report(self.config, self.SIZE, self.SIZE))

    def checkpoint_bytes(self) -> int:
        return os.path.getsize(self.ckpt)

    def prepare(self) -> None:
        rng = tensor.make_rng(self.seed)
        netpbm.write_image(self.args.image, synthetic_image(self.SIZE, self.SIZE, rng))
        netpbm.write_mask(self.args.mask, scatter_mask(self.SIZE, self.SIZE, 0.30, rng))
        unet.save_checkpoint(unet.InpaintingUNet(self.config, rng), self.ckpt)

    def set_up(self) -> float:
        self.model = None
        start = time.perf_counter()
        self.model = unet.load_checkpoint(self.ckpt)
        return time.perf_counter() - start

    def warm_up(self, clock: StepClock) -> list[Step]:
        # A fresh process's first step measured no slower than its later ones,
        # and the inpaint command runs exactly one step per process.
        return []

    @contextmanager
    def _hooks(self, written: list[np.ndarray]):
        load, write = cli.load_checkpoint, cli.write_image

        def loaded_model(path):
            if path != self.ckpt:
                raise ValueError(f"cmd_inpaint asked for checkpoint {path}, not {self.ckpt}")
            return self.model

        def keep_then_write(path, img01):
            written.append(img01)
            return write(path, img01)

        cli.load_checkpoint, cli.write_image = loaded_model, keep_then_write
        try:
            yield
        finally:
            cli.load_checkpoint, cli.write_image = load, write

    def batch(self, clock: StepClock) -> list[Step]:
        written: list[np.ndarray] = []
        with self._hooks(written):
            clock.begin()
            try:
                code = cli.cmd_inpaint(self.args)
            except Exception as exc:
                return [clock.cancel(exc)]
            step = clock.end()
        step.error = self._check(code, written)
        return [step]

    def _digest(self, out01: np.ndarray, valid: np.ndarray) -> dict:
        filled = out01[:, ~valid]
        picks = np.linspace(0, filled.shape[1] - 1, 16).astype(int)
        return {"mean": filled.mean(axis=1).tolist(),
                "mean_sq": (filled * filled).mean(axis=1).tolist(),
                "samples": filled[:, picks].ravel().tolist()}

    def _check(self, code: int, written: list[np.ndarray]) -> str | None:
        if code != cli.EXIT_OK or len(written) != 1:
            return f"cmd_inpaint returned {code} after writing {len(written)} image(s)"
        out01 = written[0]
        if not np.all(np.isfinite(out01)):
            return "non-finite output"
        if self.inputs is None:
            self.inputs = (netpbm.read_image(self.args.image),
                           netpbm.read_mask(self.args.mask)[0] == 1.0)
        img01, valid = self.inputs
        if not np.array_equal(netpbm.read_image(self.args.out)[:, valid], img01[:, valid]):
            return "valid pixels did not pass through bit-exactly"
        digest = self._digest(out01, valid)
        if self.expected is None:
            self.expected = digest
            return None
        if set(self.expected) != set(digest):
            return f"output digest has keys {sorted(digest)}, expected {sorted(self.expected)}"
        for key, want in self.expected.items():
            got = digest[key]
            worst = max(abs(a - b) for a, b in zip(got, want)) if len(got) == len(want) \
                else math.inf
            if not worst <= self.ATOL:
                return f"output digest {key!r} differs by {worst:.3e} (> {self.ATOL})"
        return None

    def record(self) -> dict:
        self.prepare()
        self.set_up()
        step = self.batch(StepClock())[0]
        if step.error:
            raise RuntimeError(f"cannot record a failing run: {step.error}")
        return {"workload": self.name, "seed": spec.DEFAULT_SEED, "digest": self.expected}


# ---------------------------------------------------------------------------
# attn256


class Attn256:
    """gated_attention forward and backward at the four encoder shapes of the
    C=32 model at 256x256, in residual mode. A step is one pass over all four."""

    name = "attn256"
    # (channels, side, heads) of encoder levels 1-4.
    SHAPES = ((32, 256, 1), (64, 128, 2), (128, 64, 4), (256, 32, 8))
    ORACLE_TOL = 1e-10          # acceptance criterion 1
    # Loss values must repeat across steps to this relative tolerance.
    RTOL = 1e-10

    def __init__(self, seed: int, workdir: str, reference_dir: str) -> None:
        self.seed = seed
        rng = tensor.make_rng(2 * seed)
        self.inputs = [(autograd.Parameter(rng.normal(size=(c, s, s))),
                        tensor.Tensor(rng.normal(size=(c, s, s))))
                       for c, s, _ in self.SHAPES]
        self.layers = None
        self.expected: list[float] | None = None
        self.oracle: tuple[float, np.ndarray] | None = None

    def macs_by_layer(self) -> dict[str, int]:
        return {}

    def checkpoint_bytes(self) -> int:
        return 0

    def prepare(self) -> None:
        pass

    def set_up(self) -> float:
        start = time.perf_counter()
        rng = tensor.make_rng(2 * self.seed + 1)
        self.layers = [(attention.ProjectionSet.init(c, rng, prefix=f"enc{i + 1}.attn"),
                        attention.AttentionConfig(channels=c, heads=h, taylor_mode="residual"))
                       for i, (c, _, h) in enumerate(self.SHAPES)]
        return time.perf_counter() - start

    def warm_up(self, clock: StepClock) -> list[Step]:
        return self.batch(clock)

    def batch(self, clock: StepClock) -> list[Step]:
        clock.begin()
        try:
            results = []
            for (x, r), (proj, cfg) in zip(self.inputs, self.layers):
                with tensor.Tape() as tape:
                    y = attention.gated_attention(x, proj, cfg)
                    loss = tensor.sum_all(tensor.hadamard(y, r))
                    tape.backward(loss)
                params = [x] + proj.parameters()
                results.append((y.data, loss.item(), [p.grad for p in params]))
                autograd.zero_grads(params)
        except Exception as exc:
            return [clock.cancel(exc)]
        step = clock.end()
        step.error = self._check(results)
        return [step]

    def _oracle(self) -> tuple[float, np.ndarray]:
        """Worst per-head gap between multi_head_attention and the quadratic
        reference at level 4, and the gated output rebuilt around that reference."""
        (x, _), (proj, cfg) = self.inputs[-1], self.layers[-1]
        c = cfg.channels
        n = x.shape[1] * x.shape[2]
        xm = x.data.reshape(c, n)

        def conv1x1(w, b, inp):
            return w.data.reshape(c, c) @ inp + b.data[:, None]

        q, k, v = (conv1x1(w, b, xm).T for w, b in
                   ((proj.wq, proj.bq), (proj.wk, proj.bk), (proj.wv, proj.bv)))
        d = cfg.head_dim
        heads = [attention.taylor_attention_quadratic(
            q[:, h * d:(h + 1) * d], k[:, h * d:(h + 1) * d], v[:, h * d:(h + 1) * d],
            mode=cfg.taylor_mode, eps=cfg.eps) for h in range(cfg.heads)]
        linear = attention.multi_head_attention(x, proj, cfg).data.reshape(c, n)
        worst = max(float(np.max(np.abs(linear[h * d:(h + 1) * d] - heads[h].T)))
                    for h in range(cfg.heads))
        attended = np.concatenate(heads, axis=1).T
        g = conv1x1(proj.w_gate, proj.b_gate, xm)
        gate = g * 0.5 * (1.0 + erf(g / math.sqrt(2.0)))
        return worst, conv1x1(proj.w_out, proj.b_out, attended * gate).reshape(x.shape)

    def _check(self, results) -> str | None:
        for (c, s, h), (y, loss, grads) in zip(self.SHAPES, results):
            if not (math.isfinite(loss) and np.all(np.isfinite(y))):
                return f"{c}x{s}x{s}: non-finite output"
            if any(g is None or not np.all(np.isfinite(g)) for g in grads):
                return f"{c}x{s}x{s}: missing or non-finite gradient"
        if self.oracle is None:
            self.oracle = self._oracle()
        worst, y_ref = self.oracle
        if not worst <= self.ORACLE_TOL:
            return f"level-4 head differs from the quadratic oracle by {worst:.3e}"
        gap = float(np.max(np.abs(results[-1][0] - y_ref)))
        if not gap <= self.ORACLE_TOL * max(1.0, float(np.max(np.abs(y_ref)))):
            return f"level-4 gated output differs from the quadratic oracle by {gap:.3e}"
        losses = [loss for _, loss, _ in results]
        if self.expected is None:
            self.expected = losses
        elif len(losses) != len(self.expected) or not all(
                math.isclose(a, b, rel_tol=self.RTOL) for a, b in zip(losses, self.expected)):
            return f"losses {losses} do not repeat the first step's {self.expected}"
        return None

    def record(self) -> dict:
        raise RuntimeError("attn256 checks against the quadratic oracle; it has no reference")


WORKLOADS = {w.name: w for w in (Train64, Infer256, Attn256)}
