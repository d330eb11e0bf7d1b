"""Composed tensor ops that no command runs, kept as test references.

The fused attention op is held to a composition of generic ops
(``_composed_multi_head`` in test_attention.py, on the rank-3 head stacks
of :func:`matmul_batched` and :func:`transpose_batched`), the fused gate and output
projection to a 1x1 conv, :func:`gelu_gate` and a 1x1 conv, the fused
feed-forward op to one built on :func:`depthwise_conv2d` and
:func:`gelu_gate` (``composed_ffn`` in test_unet.py),
``upsample_conv2d`` to a conv of :func:`nearest_upsample2x`, and ``conv2d``
of channel parts to a conv of :func:`concat_channels`. Each op here is one
:func:`linpaint.tensor.fused_op`, so it records a tape step and checks its
output finite like a library op.
"""

import math

import numpy as np

from linpaint.tensor import (
    ShapeError,
    Tensor,
    depthwise_taps,
    depthwise_taps_back,
    fused_op,
    gauss_cdf,
    unit_slices,
)


def matmul_batched(a: Tensor, b: Tensor) -> Tensor:
    """One matrix product per entry of two rank-3 stacks that share their
    leading (batch) axis."""
    if not (a.data.ndim == b.data.ndim == 3 and a.shape[0] == b.shape[0]
            and a.shape[2] == b.shape[1]):
        raise ShapeError(f"matmul_batched cannot multiply {a.shape} by {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g, needs):
        yield g @ bd.swapaxes(1, 2) if needs[0] else None
        yield ad.swapaxes(1, 2) @ g if needs[1] else None

    return fused_op(ad @ bd, "matmul_batched", (a, b), vjp)


def transpose_batched(a: Tensor) -> Tensor:
    """Swap the last two axes of each entry of a rank-3 stack."""
    if a.data.ndim != 3:
        raise ShapeError(f"transpose_batched needs rank 3, got {a.shape}")
    return fused_op(a.data.swapaxes(1, 2).copy(), "transpose_batched", (a,),
                    lambda g, needs: (g.swapaxes(1, 2).copy(),))


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
        dxp, dw = depthwise_taps_back(g_full, w.data, xp, np.empty(xp.shape))
        crop = dxp[:, padding:padding + h, padding:padding + wd]
        return crop, dw, g.reshape(c, -1).sum(axis=1)

    return fused_op(out, "depthwise_conv2d", (x, w, bias), vjp)


def nearest_upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling: out[c,i,j] = x[c, i//2, j//2]."""
    c, h, w = x.shape
    return fused_op(np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2),
                    "nearest_upsample2x", (x,),
                    lambda g, needs: (g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)),))


def concat_channels(*parts: Tensor) -> Tensor:
    """Stack CxHxW maps along the channel axis."""
    cuts = np.cumsum([p.shape[0] for p in parts])[:-1]
    return fused_op(np.concatenate([p.data for p in parts]), "concat_channels", parts,
                    lambda g, needs: np.split(g, cuts))


def gelu_gate(a: Tensor, z: Tensor) -> Tensor:
    """a * GELU(z) with the exact GELU(z) = z * Phi(z), as one op on whole
    maps: out = a (z Phi(z)); its gradients are g (z Phi(z)) for a and
    (g a) GELU'(z) for z."""
    if a.shape != z.shape:
        raise ShapeError(f"gelu_gate shape mismatch: {a.shape} vs {z.shape}")
    phi = gauss_cdf(z.data)
    act = z.data * phi

    def vjp(g, needs):
        # GELU'(z) = Phi(z) + z phi(z), in the library kernel's operation order.
        slope = np.exp(z.data * z.data * -0.5) * z.data * (1.0 / math.sqrt(2.0 * math.pi)) + phi
        return g * act, slope * (g * a.data)

    return fused_op(a.data * act, "gelu_gate", (a, z), vjp)
