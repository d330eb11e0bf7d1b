"""Composed tensor ops that no command runs, kept as test references.

The fused attention op is held to a composition of generic ops
(``_composed_multi_head`` in test_attention.py), the fused feed-forward op to
one built on :func:`depthwise_conv2d` (``composed_ffn`` in test_unet.py), and
``upsample_conv2d`` to a conv of :func:`nearest_upsample2x`. Each op here is
one :func:`linpaint.tensor.fused_op`, so it records a tape step and checks its
output finite like a library op.
"""

import numpy as np

from linpaint.tensor import (
    ShapeError,
    Tensor,
    depthwise_taps,
    depthwise_taps_back,
    fused_op,
    unit_slices,
)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Scale each 1-D slice along ``axis`` to unit L2 norm; slices with norm < eps
    become all zeros.

    The forward normalizes a copy of ``a`` with the library's
    :func:`unit_slices`; the backward is the raw-vector form
    g/|a| - a (a.g)/|a|^3, independent of the library's unit-vector one.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    normed = a.data.copy()
    _, safe, dead = unit_slices(normed, axis, eps)

    def vjp(g, needs):
        dot = (a.data * g).sum(axis=axis, keepdims=True)
        grad = g / safe - a.data * (dot / safe**3)
        return (grad if dead is None else np.where(dead, 0.0, grad),)

    return fused_op(normed, "l2_normalize", (a,), vjp)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    """Totals along one axis, which is kept with size 1."""
    return fused_op(a.data.sum(axis=axis, keepdims=True), "sum_axis", (a,),
                    lambda g, needs: (np.broadcast_to(g, a.shape).copy(),))


def div_broadcast(a: Tensor, d: Tensor) -> Tensor:
    """a / d, where d has a's rank and each axis of d matches a's or has size 1."""
    if not (d.data.ndim == a.data.ndim
            and all(m in (1, n) for m, n in zip(d.shape, a.shape))):
        raise ShapeError(f"div_broadcast cannot broadcast denominator {d.shape} to {a.shape}")
    axes = tuple(i for i, (m, n) in enumerate(zip(d.shape, a.shape)) if m != n)

    def vjp(g, needs):
        yield g / d.data if needs[0] else None
        yield -(g * a.data).sum(axis=axes, keepdims=True) / d.data**2 if needs[1] else None

    return fused_op(a.data / d.data, "div_broadcast", (a, d), vjp)


def guard_denominator(d: Tensor, eps: float) -> Tensor:
    """Clamp entries with |d| < eps to sign(d)*eps, with sign(0) = +1.

    Gradient passes through unclamped entries and is zero on clamped ones.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    live = np.abs(d.data) >= eps
    signs = np.where(d.data >= 0, 1.0, -1.0)
    return fused_op(np.where(live, d.data, signs * eps), "guard_denominator", (d,),
                    lambda g, needs: (np.where(live, g, 0.0),))


def depthwise_conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1,
                     padding: int = 0) -> Tensor:
    """Per-channel convolution: output channel c depends only on input channel c.

    x is C x H x W, w is C x k x k, bias is C. The library's stride-1 kernel
    computes the map; a larger stride keeps every stride-th row and column of
    it, and its backward scatters the gradient back onto those positions.
    """
    c, h, wd = x.shape
    k = w.shape[1]
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    full = np.empty((c, h + 2 * padding - k + 1, wd + 2 * padding - k + 1))
    depthwise_taps(xp, w.data, bias.data, full)
    out = full[:, ::stride, ::stride].copy()

    def vjp(g, needs):
        g_full = np.zeros(full.shape)
        g_full[:, ::stride, ::stride] = g
        dxp, dw = depthwise_taps_back(g_full, w.data, xp)
        crop = dxp[:, padding:padding + h, padding:padding + wd]
        return crop, dw, g.reshape(c, -1).sum(axis=1)

    return fused_op(out, "depthwise_conv2d", (x, w, bias), vjp)


def nearest_upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling: out[c,i,j] = x[c, i//2, j//2]."""
    c, h, w = x.shape
    return fused_op(np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2),
                    "nearest_upsample2x", (x,),
                    lambda g, needs: (g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)),))
