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
a free reshape, and the core runs as two passes over bands of tokens, since
linear attention is a recurrence over them. Pass 1 projects each band's k and
v and adds its terms to M = v kb^T (heads x d x d) and to the key sum s;
pass 2 projects each band's q and writes the numerator v + M qb over the
denominator N + s^T qb into the output band. Each step is one batched numpy
op over all heads, with no layout copy, and no q/k/v stack of all N tokens
is built.

Each attention layer is one recorded op on the tape: its backward is derived
by hand and returns the gradients of the input and of all six projection
parameters at once. q and k are normalized in place in each band, with or
without a tape. A taped op keeps only its output and terms of heads x d x d
or heads x N, among them the norms it divided q and k by: its backward
projects each band's q, k and v again and rescales them by those norms, so
it works from the forward's unit vectors, bit for bit. The learned gate
a * GELU(z) is one op too (:func:`gelu_gate`); without a tape it is formed
in place in the layer's own maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .autograd import Module, Parameter, _conv_params
from .tensor import (
    ShapeError,
    Tensor,
    _same_shape,
    _swap,
    conv2d,
    fused_op,
    gauss_cdf,
    gelu_slope,
    recording,
    rescale_slices,
    row_bands,
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
    "gelu_gate",
]

TAYLOR_MODES = ("sum", "residual", "none")

# Query rows per block of the two O(N^2) oracles: each holds one block x N
# weight array at a time.
_ORACLE_ROWS = 256

# Elements per chunk of the gate (512 KB of float64).
_GATE_CHUNK = 1 << 16


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
    block = np.empty((min(n, _ORACLE_ROWS), n))     # the quadratic object, a block at a time
    for lo in range(0, n, _ORACLE_ROWS):
        rows = slice(lo, lo + _ORACLE_ROWS)
        weights = np.matmul(q[rows], k.T, out=block[:min(n - lo, _ORACLE_ROWS)])
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
    inputs = (q, k, v)
    arrays = tuple(t.data for t in inputs)

    def load(lo: int, hi: int, parts: slice, block: np.ndarray) -> None:
        for i, a in enumerate(arrays[parts]):
            block[i * c:(i + 1) * c] = a[lo:hi].T

    out, back = _taylor_core(load, n, 1, c, mode, eps, normalize_qk)

    def vjp(g: np.ndarray, needs: tuple[bool, ...]) -> tuple[np.ndarray, ...]:
        grads = np.empty((3, n, c))
        for lo, hi, d_band in back(g.T[None]):
            grads[:, lo:hi] = _swap(d_band[:, 0])
        return tuple(grads)

    return fused_op(out[0].T, "taylor_linear_attention", inputs, vjp)


def _taylor_core(load: Callable[[int, int, slice, np.ndarray], None], n: int, heads: int,
                 d: int, mode: str, eps: float, normalize_qk: bool = True
                 ) -> tuple[np.ndarray, Callable[[np.ndarray], Iterator]]:
    """The linear map of N tokens over ``heads`` heads of width d, run as
    two passes over bands of tokens (``row_bands``): every step is one
    batched numpy op over all heads.

    ``load(lo, hi, parts, block)`` writes the rows ``parts`` of the (q, k, v)
    stack for tokens [lo, hi) to ``block``, a (len(parts) * heads * d,
    hi - lo) array, and must write the same bits each time it is called.
    Pass 1 loads each band's k and v, normalizes k over d in place and adds
    the band's terms to M = v kb^T (heads x d x d) and to the key sum s; in
    mode ``residual`` it also writes v to the output, and in mode ``sum``
    adds to v's total. Pass 2 loads each band's q, normalizes it and writes
    the numerator over the clamped denominator N + s^T qb into the output
    band. The bands are loaded into one reused buffer, so the output is the
    only heads x d x N array. ``normalize_qk=False`` skips both
    normalizations.

    Returns the (heads, d, N) output and ``back(g)``, which yields
    (lo, hi, d_band) with the (3, heads, d, hi - lo) gradient of each band
    of the stack for the output gradient ``g`` (a view of a reused buffer,
    valid until the next band is asked for). It runs over the bands
    twice too, loading each band again and rescaling it by the norms the
    forward saved, so it works from the forward's unit vectors, bit for bit:
    pass 1 loads q for the d x d gradient of M and the sums over q, pass 2
    loads q, k and v for each band's gradients. So a recorded op holds its
    output, M, s and terms of heads x N (the saved norms, the clamped
    denominators and where the clamp let the gradient through).
    """
    bands = row_bands(n, 1)
    size = 3 * heads * d

    def band_stack(buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The band's contiguous (3, heads, d, hi - lo) q/k/v stack in ``buf``."""
        return buf[:size * (hi - lo)].reshape(3, heads, d, hi - lo)

    def load_band(lo: int, hi: int, parts: slice, buf: np.ndarray,
                  saved: tuple = ()) -> np.ndarray:
        """The rows ``parts`` of the band's stack, loaded into ``buf``; part i
        is rescaled by ``saved[i]``, the result of its forward
        ``unit_slices`` call, where that is not None."""
        block = band_stack(buf, lo, hi)[parts]
        load(lo, hi, parts, block.reshape(-1, hi - lo))
        for part, norms in zip(block, saved):
            if norms is not None:
                rescale_slices(part, norms)
        return block

    buf = np.empty(size * bands[0][1])
    out = np.empty((heads, d, n))
    m = np.zeros((heads, d, d))
    k_sum, v_sum = np.zeros((heads, d, 1)), np.zeros((heads, d, 1))
    kept_k, kept_q = [], []
    for lo, hi in bands:
        kb, v = load_band(lo, hi, slice(1, 3), buf)
        kept_k.append(unit_slices(kb, 1) if normalize_qk else None)
        m += v @ _swap(kb)
        k_sum += kb.sum(axis=2, keepdims=True)
        if mode == "residual":
            out[..., lo:hi] = v
        elif mode == "sum":
            v_sum += v.sum(axis=2, keepdims=True)

    scratch = np.empty((heads, d, bands[0][1])) if mode == "residual" else None
    for lo, hi in bands:
        qb = load_band(lo, hi, slice(0, 1), buf)[0]
        q_saved = unit_slices(qb, 1) if normalize_qk else None
        band = out[..., lo:hi]
        if mode == "residual":
            band += np.matmul(m, qb, out=scratch[..., :hi - lo])
        else:
            np.matmul(m, qb, out=band)
            if mode == "sum":
                band += v_sum
        denom = _swap(k_sum) @ qb                       # heads x 1 x band
        denom += n
        live = np.abs(denom) >= eps
        denom = np.where(live, denom, np.where(denom >= 0, eps, -eps))
        band /= denom
        kept_q.append((q_saved, denom, live))

    def out_grads(g: np.ndarray, lo: int, hi: int, denom: np.ndarray, g_den: np.ndarray,
                  buf: np.ndarray) -> np.ndarray:
        """The band's numerator and denominator gradients, stacked so that
        one product [m^T | s] [g_num; g_den] gives both terms of dq. They
        are written in ``buf`` after the band's q, where its k and v go."""
        start = heads * d * (hi - lo)
        g_both = buf[start:start + heads * (d + 1) * (hi - lo)].reshape(heads, d + 1, hi - lo)
        np.divide(g[..., lo:hi], denom, out=g_both[:, :d])
        g_both[:, d:] = g_den
        return g_both

    def normalize_back(unit: np.ndarray, saved: tuple | None, g: np.ndarray) -> None:
        """Overwrite ``unit`` with the gradient of the raw vectors for ``g``,
        the gradient of the unit ones (``g`` itself without normalization)."""
        if saved is None:
            unit[...] = g
        else:
            unit_slices_back(unit, saved, g)

    def back(g: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
        buf = np.empty(size * bands[0][1])
        g_m = np.zeros((heads, d, d))
        q_g, g_sum = np.zeros((heads, d, 1)), np.zeros((heads, d, 1))
        # Each band's heads x 1 x band denominator gradient, for pass 2:
        # d out / d denom = -out / denom, and 0 where the guard clamped.
        g_dens = []
        for (lo, hi), (q_saved, denom, live) in zip(bands, kept_q):
            qb = load_band(lo, hi, slice(0, 1), buf, (q_saved,))[0]
            dot = np.einsum("hdn,hdn->hn", g[..., lo:hi], out[..., lo:hi])[:, None]
            g_dens.append(np.where(live, -dot / denom, 0.0))
            g_both = out_grads(g, lo, hi, denom, g_dens[-1], buf)
            g_m += g_both[:, :d] @ _swap(qb)
            q_g += qb @ _swap(g_both[:, d:])
            if mode == "sum":
                g_sum += g_both[:, :d].sum(axis=2, keepdims=True)
        m_s = np.concatenate([_swap(m), k_sum], axis=2)
        # Each gradient is written over the vector it is the gradient of, so
        # the band's stack in buf becomes its gradient; one band of scratch
        # holds dq, then dk, before its normalization's backward.
        scratch = np.empty(heads * d * bands[0][1])
        for (lo, hi), k_saved, (q_saved, denom, _), g_den in zip(bands, kept_k, kept_q,
                                                                  g_dens):
            qb = load_band(lo, hi, slice(0, 1), buf, (q_saved,))[0]
            t = scratch[:qb.size].reshape(qb.shape)
            np.matmul(m_s, out_grads(g, lo, hi, denom, g_den, buf), out=t)
            normalize_back(qb, q_saved, t)
            # The forward's grouping: [wk; wv] for k and v, wq alone for q.
            kb, v = load_band(lo, hi, slice(1, 3), buf, (k_saved,))
            np.matmul(_swap(g_m), v, out=t)
            t += q_g
            np.matmul(g_m, kb, out=v)
            normalize_back(kb, k_saved, t)
            if mode == "residual":
                v += np.divide(g[..., lo:hi], denom, out=t)
            elif mode == "sum":
                v += g_sum
            yield lo, hi, band_stack(buf, lo, hi)

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
    block = np.empty((min(n, _ORACLE_ROWS), n))     # the quadratic object, a block at a time
    for lo in range(0, n, _ORACLE_ROWS):
        rows = slice(lo, lo + _ORACLE_ROWS)
        weights = np.matmul(qb[rows], kb.T, out=block[:min(n - lo, _ORACLE_ROWS)])
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

    One recorded op, whose core (:func:`_taylor_core`) projects each band
    of tokens when it loads it: a band's k and v are rows of one product
    with the stacked [wk; wv], its q one product with wq. The backward
    returns the gradients of x and of all six projection parameters at once,
    from each band's (3C, band) gradient of the stack.
    """
    cfg.validate()
    if x.data.ndim != 3 or x.shape[0] != cfg.channels:
        raise ShapeError(f"expected {cfg.channels}xHxW input, got {x.shape}")
    c, h, w = x.shape
    n = h * w
    inputs = (x, proj.wq, proj.bq, proj.wk, proj.bk, proj.wv, proj.bv)
    w_qkv = np.concatenate([p.data for p in inputs[1::2]]).reshape(3 * c, c)
    b_qkv = np.concatenate([p.data for p in inputs[2::2]])[:, None]
    x_mat = x.data.reshape(c, n)

    def load(lo: int, hi: int, parts: slice, block: np.ndarray) -> None:
        rows = slice(parts.start * c, parts.stop * c)
        np.matmul(w_qkv[rows], x_mat[:, lo:hi], out=block)
        block += b_qkv[rows]

    out, back = _taylor_core(load, n, cfg.heads, cfg.head_dim, cfg.taylor_mode, cfg.eps)

    def vjp(g: np.ndarray, needs: tuple[bool, ...]) -> list[np.ndarray | None]:
        dx = np.empty((c, n)) if needs[0] else None
        d_w, d_b = np.zeros((3 * c, c)), np.zeros(3 * c)
        for lo, hi, d_band in back(g.reshape(out.shape)):
            d_mat = d_band.reshape(3 * c, hi - lo)
            if dx is not None:
                np.matmul(w_qkv.T, d_mat, out=dx[:, lo:hi])
            d_w += d_mat @ x_mat[:, lo:hi].T
            d_b += d_mat.sum(axis=1)
        grads = [None if dx is None else dx.reshape(c, h, w)]
        for i in range(3):
            rows = slice(i * c, (i + 1) * c)
            grads += [d_w[rows].reshape(c, c, 1, 1), d_b[rows]]
        return grads

    return fused_op(out.reshape(x.shape), "multi_head_attention", inputs, vjp)


def gated_attention(x: Tensor, proj: ProjectionSet, cfg: AttentionConfig) -> Tensor:
    """Multi-head linear attention modulated by a learned gate, then projected out.

    The gate is a 1x1 convolution of the input through GELU; multiplying it
    into the attention output lets the layer suppress positions where the
    linearized weights are least trustworthy. With gating off this is plain
    projected attention.

    The attention output and the gate map are this function's own, so the
    gate is one :func:`gelu_gate` op that, without a tape, writes the
    product over the attention output. While a tape records, the layer's
    ops keep the attention output, the gate map and the gated map (the
    output projection's input), and the core's terms of heads x N.
    """
    attended = multi_head_attention(x, proj, cfg)
    if cfg.gated:
        attended = gelu_gate(attended, conv2d(x, proj.w_gate, proj.b_gate), overwrite=True)
    return conv2d(attended, proj.w_out, proj.b_out)


def gelu_gate(a: Tensor, z: Tensor, overwrite: bool = False) -> Tensor:
    """a * GELU(z) as one op, with the exact GELU(z) = z * Phi(z).

    The work runs in chunks of ``_GATE_CHUNK`` elements, so no GELU map is
    built: the op allocates its output and one chunk of Phi(z), and keeps
    only a and z. Its backward recomputes Phi a chunk at a time and returns
    both gradients from one pass over the chunks, g * GELU(z) for a and
    g * a * GELU'(z) for z, with the bits of separate GELU and product ops.
    With ``overwrite`` and no tape the product is written over a's array,
    which the caller must own.
    """
    _same_shape(a, z, "gelu_gate")
    shape, av, zv = a.shape, a.data.reshape(-1), z.data.reshape(-1)
    chunk = max(1, min(_GATE_CHUNK, zv.size))
    out = av if overwrite and not recording((a, z)) else np.empty(zv.size)
    phi, act = np.empty(chunk), np.empty(chunk)
    for lo in range(0, zv.size, chunk):
        zc = zv[lo:lo + chunk]
        pc = gauss_cdf(zc, out=phi[:zc.size])
        np.multiply(av[lo:lo + chunk], np.multiply(zc, pc, out=act[:zc.size]),
                    out=out[lo:lo + chunk])

    def vjp(g: np.ndarray, needs: tuple[bool, ...]) -> list[np.ndarray | None]:
        gv = g.reshape(-1)
        da, dz = (np.empty(zv.size) if need else None for need in needs)
        phi = np.empty(chunk)
        for lo in range(0, zv.size, chunk):
            part = slice(lo, lo + chunk)
            zc, gc = zv[part], gv[part]
            pc = gauss_cdf(zc, out=phi[:zc.size])
            if da is not None:
                np.multiply(gc, np.multiply(zc, pc, out=da[part]), out=da[part])
            if dz is not None:
                # slope * (g a): the bits of (g a) * slope, as IEEE
                # multiplication commutes; g a is written over Phi.
                slope = gelu_slope(zc, pc, out=dz[part])
                slope *= np.multiply(gc, av[part], out=pc)
        return [None if gr is None else gr.reshape(shape) for gr in (da, dz)]

    return fused_op(out.reshape(a.shape), "gelu_gate", (a, z), vjp)
