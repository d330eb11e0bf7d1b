"""Softmax attention and its Taylor-expansion linearization, with gating.

The linear form rests on two steps: replace exp(x) by its first-order
expansion 1 + x (accurate because query/key rows are unit-normalized, keeping
the inner products near zero), then reorder (Q K^T) V into Q (K^T V) so the
cost drops from O(N^2 C) to O(N C^2). No N x N array is ever built here; the
quadratic reference that does build it lives in
:func:`taylor_attention_quadratic` and exists for benchmarking only.

The model runs the map channel-major: a C x H x W map is a C x N matrix under
a free reshape, and with the heads as a leading axis the q/k/v projections are
(heads, d, N) stacks. M = v kb^T (heads x d x d), the numerator v + M qb and
the denominator N + s^T qb are then each one batched op over all heads, with
no layout copy between the projections and the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Module, Parameter
from .tensor import (
    ShapeError,
    Tensor,
    add,
    conv2d,
    div_broadcast,
    gelu,
    guard_denominator,
    hadamard,
    l2_normalize,
    matmul,
    reshape,
    scale,
    softmax_rows,
    sum_axis,
    transpose,
)

__all__ = [
    "TAYLOR_MODES",
    "AttentionConfig",
    "ProjectionSet",
    "vanilla_attention",
    "taylor_linear_attention",
    "taylor_attention_quadratic",
    "multi_head_attention",
    "gated_attention",
]

TAYLOR_MODES = ("sum", "residual", "none")


@dataclass
class AttentionConfig:
    """Knobs for one attention layer.

    taylor_mode picks the numerator's constant term: ``residual`` keeps the
    per-row value (the default; its removal is the "no value shortcut"
    ablation via ``none``), ``sum`` uses the value column totals. ``gated``
    switches the learned GELU gate on the attention output. ``divide``
    selects whether the linearized weights are normalized by their row sum;
    both variants are exposed because they differ only by the denominator.
    """

    channels: int
    heads: int = 1
    taylor_mode: str = "residual"
    gated: bool = True
    eps: float = 1e-6
    normalize_qk: bool = True
    divide: bool = True

    def validate(self) -> None:
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.heads < 1 or self.channels % self.heads != 0:
            raise ValueError(
                f"channels ({self.channels}) must be divisible by heads ({self.heads})")
        if self.taylor_mode not in TAYLOR_MODES:
            raise ValueError(f"taylor_mode must be one of {TAYLOR_MODES}, "
                             f"got {self.taylor_mode!r}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


@dataclass
class ProjectionSet(Module):
    """The five 1x1-convolution weight/bias pairs of one attention layer."""

    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    w_gate: Parameter
    b_gate: Parameter
    w_out: Parameter
    b_out: Parameter

    @classmethod
    def init(cls, channels: int, rng: np.random.Generator, prefix: str = "attn",
             out_gain: float = 1.0) -> "ProjectionSet":
        std = math.sqrt(1.0 / channels)

        def conv_pair(tag: str, gain: float = 1.0) -> tuple[Parameter, Parameter]:
            w = Parameter(rng.normal(0.0, gain * std, size=(channels, channels, 1, 1)),
                          name=f"{prefix}.{tag}.w")
            b = Parameter(np.zeros(channels), name=f"{prefix}.{tag}.b")
            return w, b

        wq, bq = conv_pair("wq")
        wk, bk = conv_pair("wk")
        wv, bv = conv_pair("wv")
        wg, bg = conv_pair("w_gate")
        wo, bo = conv_pair("w_out", gain=out_gain)
        return cls(wq, bq, wk, bk, wv, bv, wg, bg, wo, bo)


def _check_qkv(q: Tensor, k: Tensor, v: Tensor) -> tuple[int, int]:
    if q.data.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(
            f"attention needs equal NxC operands, got q={q.shape} k={k.shape} v={v.shape}")
    return q.shape


def vanilla_attention(q: Tensor, k: Tensor, v: Tensor,
                      scaled: bool = True) -> Tensor:
    """Exact softmax attention: softmax(q k^T / sqrt(C)) v.

    Quadratic in N; this is the reference the linear form is tested against.
    ``scaled=False`` drops the 1/sqrt(C) factor so the Taylor step can be
    isolated in approximation studies.
    """
    n, c = _check_qkv(q, k, v)
    logits = matmul(q, transpose(k))
    if scaled:
        logits = scale(logits, 1.0 / math.sqrt(c))
    return matmul(softmax_rows(logits), v)


def taylor_linear_attention(q: Tensor, k: Tensor, v: Tensor,
                            mode: str = "residual", eps: float = 1e-6,
                            normalize_qk: bool = True,
                            divide: bool = True) -> Tensor:
    """Linearized attention in O(N C^2) time and O(N C + C^2) space.

    With qb, kb the (optionally row-normalized) queries and keys, the row
    weights are 1 + qb_i . kb_j. Grouping the value side first gives
    M = kb^T v (C x C) and column totals s = sum_j kb_j, so each output row
    costs O(C^2):

        numerator_i = v_i + qb_i M      (mode "residual")
                      sum_j v_j + qb_i M  (mode "sum")
                      qb_i M            (mode "none", the plain kernel family)
        denominator_i = N + qb_i . s    (clamped away from zero by eps)

    ``divide=False`` returns the bare numerator. This N x C form is the
    one-head case of the channel-major map :func:`multi_head_attention` runs.
    """
    n, c = _check_qkv(q, k, v)
    if mode not in TAYLOR_MODES:
        raise ValueError(f"mode must be one of {TAYLOR_MODES}, got {mode!r}")

    one_head = [reshape(transpose(t), (1, c, n)) for t in (q, k, v)]
    out = _taylor_heads(*one_head, mode, eps, normalize_qk, divide)
    return transpose(reshape(out, (c, n)))


def _taylor_heads(q: Tensor, k: Tensor, v: Tensor, mode: str, eps: float,
                  normalize_qk: bool, divide: bool) -> Tensor:
    """The linear map on (heads, d, N) stacks, each head's tokens as columns;
    every step is one batched op over all heads."""
    heads, _, n = q.shape
    qb = l2_normalize(q, axis=1) if normalize_qk else q
    kb = l2_normalize(k, axis=1) if normalize_qk else k

    m = matmul(v, transpose(kb))            # heads x d x d, nothing N x N is built
    q_kv = matmul(m, qb)                    # heads x d x N

    if mode == "residual":
        numerator = add(v, q_kv)
    elif mode == "sum":
        numerator = add(matmul(sum_axis(v, 2), Tensor(np.ones((heads, 1, n)))), q_kv)
    else:
        numerator = q_kv

    if not divide:
        return numerator

    k_sum = sum_axis(kb, 2)                 # heads x d x 1
    denom = add(matmul(transpose(k_sum), qb), Tensor(np.full((heads, 1, n), float(n))))
    return div_broadcast(numerator, guard_denominator(denom, eps))


def taylor_attention_quadratic(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                               mode: str = "residual", eps: float = 1e-6,
                               normalize_qk: bool = True, divide: bool = True,
                               row_chunk: int = 256) -> np.ndarray:
    """Same map as :func:`taylor_linear_attention`, evaluated the O(N^2 C) way.

    Materializes the pairwise weights (in row chunks so large N stays within
    memory) and is deliberately kept forward-only plain numpy: it is the
    benchmarking counterweight, not part of the model.
    """
    if mode not in TAYLOR_MODES:
        raise ValueError(f"mode must be one of {TAYLOR_MODES}, got {mode!r}")
    n, c = q.shape

    def norm_rows(a: np.ndarray) -> np.ndarray:
        norms = np.sqrt((a * a).sum(axis=1, keepdims=True))
        return np.where(norms >= 1e-12, a / np.where(norms >= 1e-12, norms, 1.0), 0.0)

    qb = norm_rows(q) if normalize_qk else q
    kb = norm_rows(k) if normalize_qk else k
    v_total = v.sum(axis=0)

    out = np.empty((n, c))
    for lo in range(0, n, row_chunk):
        hi = min(lo + row_chunk, n)
        weights = qb[lo:hi] @ kb.T          # the quadratic object, chunk x N
        num = weights @ v
        if mode == "residual":
            num = num + v[lo:hi]
        elif mode == "sum":
            num = num + v_total
        if divide:
            denom = n + weights.sum(axis=1, keepdims=True)
            clamped = np.abs(denom) < eps
            denom = np.where(clamped, np.where(denom >= 0, eps, -eps), denom)
            num = num / denom
        out[lo:hi] = num
    return out


def multi_head_attention(x: Tensor, proj: ProjectionSet,
                         cfg: AttentionConfig) -> Tensor:
    """Project to q/k/v and run linear attention on all heads as one stack;
    head i owns the contiguous channels [i d, (i + 1) d)."""
    cfg.validate()
    if x.data.ndim != 3 or x.shape[0] != cfg.channels:
        raise ShapeError(f"expected {cfg.channels}xHxW input, got {x.shape}")
    _, h, w = x.shape
    stack = (cfg.heads, cfg.head_dim, h * w)
    q = reshape(conv2d(x, proj.wq, proj.bq), stack)
    k = reshape(conv2d(x, proj.wk, proj.bk), stack)
    v = reshape(conv2d(x, proj.wv, proj.bv), stack)
    out = _taylor_heads(q, k, v, cfg.taylor_mode, cfg.eps, cfg.normalize_qk, cfg.divide)
    return reshape(out, x.shape)


def gated_attention(x: Tensor, proj: ProjectionSet, cfg: AttentionConfig) -> Tensor:
    """Multi-head linear attention modulated by a learned gate, then projected out.

    The gate is a 1x1 convolution of the input through GELU; multiplying it
    into the attention output lets the layer suppress positions where the
    linearized weights are least trustworthy. With gating off this is plain
    projected attention.
    """
    attended = multi_head_attention(x, proj, cfg)
    if cfg.gated:
        gate = gelu(conv2d(x, proj.w_gate, proj.b_gate))
        attended = hadamard(attended, gate)
    return conv2d(attended, proj.w_out, proj.b_out)
