"""Softmax attention and its Taylor-expansion linearization, with gating.

The linear form rests on two steps: replace exp(x) by its first-order
expansion 1 + x (accurate because query/key rows are unit-normalized, keeping
the inner products near zero), then reorder (Q K^T) V into Q (K^T V) so the
cost drops from O(N^2 C) to O(N C^2). Only the two oracles, which the model
never runs, work pairwise: :func:`vanilla_attention`, the exact unscaled
softmax map the expansion approximates, and :func:`taylor_attention_quadratic`,
the linear map evaluated the quadratic way (the baseline it is checked and
timed against). Both are forward-only plain numpy over blocks of
``_ORACLE_ROWS`` query rows, so their memory grows with N, not N^2.

The model runs the map channel-major: a C x H x W map is a C x N matrix under
a free reshape, and one product with the stacked [wq; wk; wv] gives q/k/v as
one (3, heads, d, N) stack. M = v kb^T (heads x d x d), the numerator
v + M qb and the denominator N + s^T qb are then each one batched numpy op
over all heads, with no layout copy between the projections and the output.

Each attention layer is one recorded op on the tape: its backward is derived
by hand and returns the gradients of the input and of all six projection
parameters at once. q and k are normalized in place inside the q/k/v stack,
with or without a tape, and the backward works from those unit vectors: the
op keeps that one stack and the output, plus terms of heads x d x d or
heads x N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autograd import Module, Parameter, _conv_params
from .tensor import (
    ShapeError,
    Tensor,
    _swap,
    conv2d,
    fused_op,
    gelu,
    hadamard,
    unit_slices,
    unit_slices_back,
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

# Query rows per block of the two O(N^2) oracles: each holds one block x N
# weight array at a time.
_ORACLE_ROWS = 256


@dataclass
class AttentionConfig:
    """The settings of one attention layer.

    taylor_mode picks the numerator's constant term: ``residual`` keeps the
    per-row value (the default; its removal is the "no value shortcut"
    ablation via ``none``), ``sum`` uses the value column totals. ``gated``
    switches the learned GELU gate on the attention output. q and k are
    always unit-normalized per head and the weights always divided by their
    row sum, clamped away from zero by ``eps``.
    """

    channels: int
    heads: int = 1
    taylor_mode: str = "residual"
    gated: bool = True
    eps: float = 1e-6

    def validate(self) -> None:
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.heads < 1 or self.channels % self.heads != 0:
            raise ValueError(
                f"channels ({self.channels}) must be divisible by heads ({self.heads})")
        if self.taylor_mode not in TAYLOR_MODES:
            raise ValueError(f"taylor_mode must be one of {TAYLOR_MODES}, "
                             f"got {self.taylor_mode!r}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


@dataclass
class ProjectionSet(Module):
    """The 1x1-convolution weight/bias pairs of one attention layer: q, k, v,
    the gate (None unless ``gated``) and the output."""

    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    w_gate: Parameter | None
    b_gate: Parameter | None
    w_out: Parameter
    b_out: Parameter

    @classmethod
    def init(cls, channels: int, rng: np.random.Generator, prefix: str = "attn",
             out_gain: float = 1.0, gated: bool = True) -> "ProjectionSet":
        def conv_pair(tag: str, gain: float = 1.0) -> tuple[Parameter, Parameter]:
            return _conv_params(rng, channels, channels, 1, f"{prefix}.{tag}", gain)

        wq, bq = conv_pair("wq")
        wk, bk = conv_pair("wk")
        wv, bv = conv_pair("wv")
        wg, bg = conv_pair("w_gate") if gated else (None, None)
        wo, bo = conv_pair("w_out", gain=out_gain)
        return cls(wq, bq, wk, bk, wv, bv, wg, bg, wo, bo)


def _check_qkv(q, k, v) -> tuple[int, int]:
    if len(q.shape) != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(
            f"attention needs equal NxC operands, got q={q.shape} k={k.shape} v={v.shape}")
    return q.shape


def vanilla_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact softmax attention softmax(q k^T) v, with no 1/sqrt(C) factor: the
    map whose exp(q . k) the Taylor step replaces by 1 + q . k, evaluated one
    block of query rows at a time like :func:`taylor_attention_quadratic`."""
    n, c = _check_qkv(q, k, v)
    out = np.empty((n, c))
    for lo in range(0, n, _ORACLE_ROWS):
        rows = slice(lo, lo + _ORACLE_ROWS)
        weights = q[rows] @ k.T             # the quadratic object, block x N
        weights -= weights.max(axis=1, keepdims=True)
        np.exp(weights, out=weights)
        out[rows] = (weights @ v) / weights.sum(axis=1, keepdims=True)
    return out


def taylor_linear_attention(q: Tensor, k: Tensor, v: Tensor,
                            mode: str = "residual", eps: float = 1e-6,
                            normalize_qk: bool = True) -> Tensor:
    """Linearized attention in O(N C^2) time and O(N C + C^2) space.

    With qb, kb the row-normalized queries and keys, the row weights are
    1 + qb_i . kb_j. Grouping the value side first gives M = kb^T v (C x C)
    and column totals s = sum_j kb_j, so each output row costs O(C^2):

        numerator_i = v_i + qb_i M      (mode "residual")
                      sum_j v_j + qb_i M  (mode "sum")
                      qb_i M            (mode "none", the plain kernel family)
        denominator_i = N + qb_i . s    (clamped away from zero by eps)

    and the output row is their quotient. ``normalize_qk=False`` (the Taylor-
    limit study) skips the normalization. This N x C form is the one-head
    case of the channel-major core :func:`multi_head_attention` runs.
    """
    n, c = _check_qkv(q, k, v)
    if mode not in TAYLOR_MODES:
        raise ValueError(f"mode must be one of {TAYLOR_MODES}, got {mode!r}")

    qkv = np.stack([t.data.T for t in (q, k, v)])[:, None]       # 3 x 1 x C x N
    out, back = _taylor_core(qkv, mode, eps, normalize_qk)

    def vjp(g: np.ndarray, needs: tuple[bool, ...]) -> tuple[np.ndarray, ...]:
        dqkv = np.empty(qkv.shape)
        back(g.T[None], dqkv)
        return tuple(np.ascontiguousarray(d.T) for d in dqkv[:, 0])

    return fused_op(out[0].T, "taylor_linear_attention", (q, k, v), vjp)


def _taylor_core(qkv: np.ndarray, mode: str, eps: float, normalize_qk: bool = True
                 ) -> tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], None]]:
    """The linear map on a (3, heads, d, N) q/k/v stack, each head's tokens as
    columns, in plain numpy: every step is one batched op over all heads.
    q and k are normalized over d in place inside ``qkv`` unless
    ``normalize_qk`` is False.

    Returns the (heads, d, N) output and ``back(g, dqkv)``, which writes the
    gradients of q, k and v for the output gradient ``g`` into ``dqkv``.
    ``back`` keeps the stack, the output and terms of heads x d x d or
    heads x N; nothing N x N is built either way.
    """
    qb, kb, v = qkv
    n = qb.shape[2]
    if normalize_qk:
        q_saved = unit_slices(qb, 1)
        k_saved = unit_slices(kb, 1)

    m = v @ _swap(kb)                       # heads x d x d, through a view of kb
    out = m @ qb                            # the numerator, heads x d x N
    if mode == "residual":
        out += v
    elif mode == "sum":
        out += v.sum(axis=2, keepdims=True)

    k_sum = kb.sum(axis=2, keepdims=True)               # heads x d x 1
    denom = _swap(k_sum) @ qb                           # heads x 1 x N
    denom += n
    live = np.abs(denom) >= eps
    denom = np.where(live, denom, np.where(denom >= 0, eps, -eps))
    out /= denom

    def back(g: np.ndarray, dqkv: np.ndarray) -> None:
        dq, dk, dv = dqkv
        heads, d = qb.shape[:2]
        # The numerator's and the denominator's gradients, stacked so that
        # one product [m^T | s] [g_num; g_den] gives both terms of dq.
        # d out / d denom = -out / denom, and 0 where the guard clamped.
        g_both = np.empty((heads, d + 1, n))
        g_num = np.divide(g, denom, out=g_both[:, :d])
        g_den = g_both[:, d:]
        dot = np.einsum("hdn,hdn->hn", g, out)[:, None]
        np.copyto(g_den, np.where(live, -dot / denom, 0.0))
        np.matmul(np.concatenate([_swap(m), k_sum], axis=2), g_both, out=dq)
        g_m = g_num @ _swap(qb)                         # heads x d x d
        np.matmul(g_m, kb, out=dv)
        np.matmul(_swap(g_m), v, out=dk)
        if mode == "residual":
            dv += g_num
        elif mode == "sum":
            dv += g_num.sum(axis=2, keepdims=True)
        dk += qb @ _swap(g_den)
        if normalize_qk:
            scratch = np.empty(qb.shape)
            unit_slices_back(qb, q_saved, dq, dq, scratch)
            unit_slices_back(kb, k_saved, dk, dk, scratch)

    return out, back


def taylor_attention_quadratic(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                               mode: str = "residual", eps: float = 1e-6) -> np.ndarray:
    """Same map as :func:`taylor_linear_attention`, evaluated the O(N^2 C) way.

    Materializes the pairwise weights one block of query rows at a time and
    is deliberately kept forward-only plain numpy: it is the oracle and the
    benchmarking counterweight, not part of the model.
    """
    if mode not in TAYLOR_MODES:
        raise ValueError(f"mode must be one of {TAYLOR_MODES}, got {mode!r}")
    n, c = _check_qkv(q, k, v)

    def norm_rows(a: np.ndarray) -> np.ndarray:
        norms = np.sqrt((a * a).sum(axis=1, keepdims=True))
        return np.where(norms >= 1e-12, a / np.where(norms >= 1e-12, norms, 1.0), 0.0)

    qb = norm_rows(q)
    kb = norm_rows(k)
    v_total = v.sum(axis=0)

    out = np.empty((n, c))
    for lo in range(0, n, _ORACLE_ROWS):
        rows = slice(lo, lo + _ORACLE_ROWS)
        weights = qb[rows] @ kb.T           # the quadratic object, block x N
        num = weights @ v
        if mode == "residual":
            num = num + v[rows]
        elif mode == "sum":
            num = num + v_total
        denom = n + weights.sum(axis=1, keepdims=True)
        clamped = np.abs(denom) < eps
        denom = np.where(clamped, np.where(denom >= 0, eps, -eps), denom)
        out[rows] = num / denom
    return out


def multi_head_attention(x: Tensor, proj: ProjectionSet,
                         cfg: AttentionConfig) -> Tensor:
    """Project to q/k/v and run linear attention on all heads as one stack;
    head i owns the contiguous channels [i d, (i + 1) d).

    One recorded op: x is multiplied once by the stacked [wq; wk; wv], and the
    backward returns the gradients of x and of all six projection parameters
    at once, from one (3C, N) gradient of the stack.
    """
    cfg.validate()
    if x.data.ndim != 3 or x.shape[0] != cfg.channels:
        raise ShapeError(f"expected {cfg.channels}xHxW input, got {x.shape}")
    c, h, w = x.shape
    n = h * w
    inputs = (x, proj.wq, proj.bq, proj.wk, proj.bk, proj.wv, proj.bv)
    w_qkv = np.concatenate([p.data for p in inputs[1::2]]).reshape(3 * c, c)
    x_mat = x.data.reshape(c, n)
    qkv = w_qkv @ x_mat
    qkv += np.concatenate([p.data for p in inputs[2::2]])[:, None]
    stack = qkv.reshape(3, cfg.heads, cfg.head_dim, n)
    out, back = _taylor_core(stack, cfg.taylor_mode, cfg.eps)

    def vjp(g: np.ndarray, needs: tuple[bool, ...]) -> list[np.ndarray | None]:
        d_qkv = np.empty(stack.shape)
        back(g.reshape(out.shape), d_qkv)
        d_mat = d_qkv.reshape(3 * c, n)
        grads = [(w_qkv.T @ d_mat).reshape(x.shape) if needs[0] else None]
        d_w = d_mat @ x_mat.T if any(needs[1::2]) else None
        d_b = d_mat.sum(axis=1) if any(needs[2::2]) else None
        for i in range(3):
            rows = slice(i * c, (i + 1) * c)
            grads.append(None if d_w is None else d_w[rows].reshape(c, c, 1, 1))
            grads.append(None if d_b is None else d_b[rows])
        return grads

    return fused_op(out.reshape(x.shape), "multi_head_attention", inputs, vjp)


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
