"""Outside-in tracing of linpaint's public layer boundaries, and the per-layer report.

:meth:`Tracer.install` replaces linpaint's public module-level functions (in
every ``linpaint.*`` module that imported them) and a few methods at class
level with wrappers that record one span per call: name, start, end, parent
span and step id. Spans stay in memory until the run ends. Nothing under
``src/`` changes. Backward closures are private to ``linpaint.tensor``, so
backward time is visible only as one ``Tape.backward`` span per tape; a
per-layer backward split needs hooks inside the package.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import linpaint.attention as attention
import linpaint.autograd as autograd
import linpaint.losses as losses
import linpaint.netpbm as netpbm
import linpaint.tensor as tensor
import linpaint.unet as unet
from linpaint.cost import CostReport, linear_attention_macs

import spec

# Step id of spans recorded while the workload sets up (e.g. load_checkpoint).
SETUP_STEP = -1

# Public tensor ops other than the convolutions, by the per-layer row they feed.
# Names a later version of the package no longer has are skipped.
_TENSOR_ROWS = {
    "matmul": "matmul",
    "gelu": "gelu",
    "layer_norm_sites": "layer_norm_sites",
    "tanh": "pointwise", "sigmoid": "pointwise", "leaky_relu": "pointwise",
    "log_clamped": "pointwise", "absolute": "pointwise", "add": "pointwise",
    "sub": "pointwise", "hadamard": "pointwise", "scale": "pointwise",
    "div_rows": "pointwise", "guard_denominator": "pointwise",
    "transpose": "layout", "chw_to_nc": "layout", "nc_to_chw": "layout",
    "concat_channels": "layout", "concat_cols": "layout", "slice_cols": "layout",
    "nearest_upsample2x": "layout",
    "sum_all": "reduce", "mean_all": "reduce", "sum_over_rows": "reduce",
    "softmax_rows": "reduce", "l2_normalize_rows": "reduce",
}

_LOSS_SPANS = ("discriminator_loss", "generator_adversarial_loss", "perceptual_loss",
               "style_loss", "l1_reconstruction", "power_iteration_sigma")


def _conv_work(args, kwargs, out):
    w = args[1] if len(args) > 1 else kwargs["w"]
    k = w.shape[2]
    return f"tensor.conv2d_k{k}", out.size * w.shape[1] * k * k


def _depthwise_work(args, kwargs, out):
    w = args[1] if len(args) > 1 else kwargs["w"]
    return "tensor.depthwise_conv2d", out.size * w.shape[1] * w.shape[2]


def _attention_work(args, kwargs, out):
    n, c = (args[0] if args else kwargs["q"]).shape
    return "attention.taylor_linear_attention", linear_attention_macs(n, c)


def _adamw_work(args, kwargs, out):
    params = args[0] if args else kwargs["params"]
    return "autograd.adamw_step", sum(p.size for p in params)


def _backward_work(args, kwargs, out):
    return "tensor.backward", len(args[0])


# The tape may release its steps while replaying them, so count them first.
_backward_work.before = True


def _conv_layer_work(args, kwargs, out):
    return "unet.layer", args[0].w.name[:-len(".w")]


def _block_work(args, kwargs, out):
    return "unet.layer", ".".join(args[0].parameters()[0].name.split(".")[:2])


_conv_layer_work.before = _block_work.before = True


def stage_of(layer: str) -> str:
    """Stage of a model layer name: ``down2`` -> ``down``, ``dec3.up`` -> ``dec3``."""
    first = layer.split(".")[0]
    return "down" if first.startswith("down") else first


def layer_macs(report: CostReport) -> dict[str, int]:
    """MACs per traced model layer: a ConvLayer row, or the sum of a block's rows."""
    macs: dict[str, int] = defaultdict(int)
    for line in report.lines:
        parts = line.name.split(".")
        key = ".".join(parts[:2]) if len(parts) > 1 and parts[1].startswith("block") \
            else line.name
        macs[key] += line.macs
    return dict(macs)


class Tracer:
    """Records spans around linpaint's public calls while installed."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index, step id, work].
        self.spans: list[list] = []
        self.step: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, work=None):
        """``work(args, kwargs, out)`` names the span and counts its work after
        the call; a ``work`` marked ``before`` runs ahead of it with ``out=None``."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        before = getattr(work, "before", False)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.step, 0]
            if before:
                rec[0], rec[5] = work(args, kwargs, None)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None and not before:
                rec[0], rec[5] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        functions = [(tensor, attr, f"tensor.{row}", None) for attr, row in _TENSOR_ROWS.items()]
        functions += [
            (tensor, "conv2d", "tensor.conv2d", _conv_work),
            (tensor, "depthwise_conv2d", "tensor.depthwise_conv2d", _depthwise_work),
            (autograd, "adamw_step", "autograd.adamw_step", _adamw_work),
            (autograd, "zero_grads", "autograd.zero_grads", None),
            (attention, "gated_attention", "attention.gated_attention", None),
            (attention, "multi_head_attention", "attention.multi_head_attention", None),
            (attention, "taylor_linear_attention", "attention.taylor_linear_attention",
             _attention_work),
            (unet, "compose_with_mask", "unet.compose_with_mask", None),
            (unet, "load_checkpoint", "unet.load_checkpoint", None),
            (unet, "save_checkpoint", "unet.save_checkpoint", None),
            (losses, "gram_matrix", "losses.gram_matrix", None),
            (losses, "generator_loss_terms", "losses.generator_loss_terms", None),
            (losses, "total_loss", "losses.total_loss", None),
        ]
        functions += [(losses, attr, f"losses.{attr}", None) for attr in _LOSS_SPANS]
        functions += [(netpbm, attr, "netpbm.read", None)
                      for attr in ("read_image", "read_gray", "read_mask")]
        functions += [(netpbm, attr, "netpbm.write", None)
                      for attr in ("write_image", "write_gray", "write_mask")]
        methods = [
            (tensor.Tape, "backward", "tensor.backward", _backward_work),
            (getattr(unet, "ConvLayer", None), "__call__", "unet.layer", _conv_layer_work),
            (getattr(unet, "TransformerBlock", None), "__call__", "unet.layer", _block_work),
            (unet.InpaintingUNet, "forward", "unet.forward", None),
            (getattr(unet, "FeedForward", None), "__call__", "unet.ffn", None),
            (losses.PatchDiscriminator, "forward", "losses.patch_discriminator", None),
            (losses.RandomConvFeatureExtractor, "features", "losses.features", None),
        ]

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "linpaint" or key.startswith("linpaint."))]
        for owner, attr, name, work in functions:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name, work)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, wrapped)
        for cls, attr, name, work in methods:
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                continue
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, work))

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, step, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step, "work": work}) + "\n")


@dataclass
class Step:
    """One unit of work: its duration (None if it raised) and why it failed, if it did."""

    id: int
    seconds: float | None
    error: str | None = None


class StepClock:
    """Times steps; with a tracer attached, tags the spans of each step with its id."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self._next = 0
        self._start = 0.0

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.step = self._next
        self._start = time.perf_counter()

    def end(self) -> Step:
        seconds = time.perf_counter() - self._start
        return self._close(seconds, None)

    def cancel(self, exc: BaseException) -> Step:
        return self._close(None, f"{type(exc).__name__}: {exc}")

    def _close(self, seconds: float | None, error: str | None) -> Step:
        if self.tracer is not None:
            self.tracer.step = None
        step = Step(self._next, seconds, error)
        self._next += 1
        return step


def per_layer(spans: list[list], steps: list[Step], macs_by_layer: dict[str, int],
              checkpoint_bytes: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-step layer metrics over the given (passed, traced) steps.

    Returns the metrics named in ``spec.PER_LAYER`` (layers a workload never
    calls read 0) and the MACs per step behind each GMAC/s figure. Tensor op
    rows are self time; stage, loss and attention rows without ``self`` in
    their name are inclusive time.
    """
    counted = {s.id for s in steps}
    n = max(len(steps), 1)
    child = [0.0] * len(spans)
    for name, start, end, parent, step, work in spans:
        if parent >= 0:
            child[parent] += end - start

    # Seconds and counts summed over the steps, keyed by metric name.
    total: dict[str, float] = defaultdict(float)
    macs: dict[str, float] = defaultdict(float)
    covered = 0.0
    load_s = 0.0
    for i, (name, start, end, parent, step, work) in enumerate(spans):
        dur = end - start
        if name == "unet.load_checkpoint" and step == SETUP_STEP:
            load_s += dur
        if step not in counted:
            continue
        if parent < 0:
            covered += dur
        self_s = dur - child[i]
        if name == "tensor.backward":
            total["tensor.backward_s"] += dur
            total["tensor.tape_steps"] += work
        elif name.startswith("tensor."):
            total[f"{name}.fwd_s"] += self_s
            macs[name] += work
            total["tensor.ops"] += 1
        elif name == "autograd.adamw_step":
            total["autograd.adamw_step.s"] += dur
            total["autograd.params_updated"] += work
        elif name in ("attention.gated_attention", "attention.multi_head_attention"):
            total[f"{name}.self_s"] += self_s
        elif name == "attention.taylor_linear_attention":
            total[f"{name}.s"] += dur
            total[f"{name}.calls"] += 1
            macs["attention.core"] += work
        elif name == "unet.layer":
            stage = stage_of(work)
            total[f"unet.{stage}.s"] += dur
            macs[f"unet.{stage}"] += macs_by_layer.get(work, 0)
        elif name == "losses.patch_discriminator":
            total["losses.patch_discriminator.fwd_s"] += dur
        elif name.startswith("losses.") and name[len("losses."):] in _LOSS_SPANS:
            total[f"{name}.s"] += dur
        elif name in ("netpbm.read", "netpbm.write"):
            total[f"{name}_s"] += self_s

    def gmac_per_s(key: str, seconds_key: str) -> float:
        seconds = total.get(seconds_key, 0.0)
        return macs.get(key, 0.0) / seconds / 1e9 if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for k in spec.CONV_KERNELS:
        out[f"tensor.conv2d_k{k}.gmac_per_s"] = gmac_per_s(f"tensor.conv2d_k{k}",
                                                          f"tensor.conv2d_k{k}.fwd_s")
    out["tensor.depthwise_conv2d.gmac_per_s"] = gmac_per_s(
        "tensor.depthwise_conv2d", "tensor.depthwise_conv2d.fwd_s")
    out["attention.core.gmac_per_s"] = gmac_per_s(
        "attention.core", "attention.taylor_linear_attention.s")
    for stage in spec.UNET_STAGES:
        out[f"unet.{stage}.gmac_per_s"] = gmac_per_s(f"unet.{stage}", f"unet.{stage}.s")
    step_total = sum(s.seconds for s in steps)
    out["trace.coverage"] = covered / step_total if step_total > 0 else 0.0
    out["unet.load_checkpoint.s"] = load_s
    out["unet.checkpoint_bytes"] = float(checkpoint_bytes)

    metrics = {name: out[name] if name in out else total.get(name, 0.0) / n
               for name in spec.PER_LAYER}
    return metrics, {key: value / n for key, value in macs.items()}
