"""Dense float64 tensors and the differentiable primitives everything else is built on.

Values are numpy arrays wrapped in :class:`Tensor` nodes. Operations are pure:
they never modify their inputs and allocate fresh outputs, except
:func:`reshape`, whose output is a view of its input. When a
:class:`Tape` is active, an operation with an input that ``requires_grad``
records a backward step for those inputs only; an operation on constants
records nothing. The tape replays its steps once, in exact reverse order,
freeing each step and intermediate gradient as it goes. :func:`fused_op`
makes a computation written in plain numpy elsewhere one primitive, whose
single step returns the gradients of all its inputs at once; such a
computation asks :func:`recording` whether to keep what its backward needs.

GELU's Gaussian CDF, :func:`gauss_cdf`, is plain numpy too: degree-5 Taylor
coefficients of Phi tabulated at k/128 over [-40, 9], built at import from
``math.erfc``, gathered per element and evaluated by Horner's rule. It is
within 2.5e-16 of ``0.5 * erfc(-x / sqrt(2))`` absolutely, and within 1e-11
relatively for x >= -8.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "Tensor",
    "Tape",
    "make_rng",
    "fused_op",
    "recording",
    "matmul",
    "transpose",
    "conv2d",
    "upsample_conv2d",
    "gelu",
    "tanh",
    "sigmoid",
    "leaky_relu",
    "log_clamped",
    "absolute",
    "add",
    "sub",
    "hadamard",
    "scale",
    "concat_channels",
    "reshape",
    "sum_all",
    "mean_all",
    "layer_norm_sites",
]

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class NonFiniteError(ArithmeticError):
    """Raised when an operation would emit NaN or Inf."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based PRNG (Philox 4x64); identical streams on every platform."""
    return np.random.Generator(np.random.Philox(seed))


class Tensor:
    """A dense n-dimensional float64 array, row-major, with a gradient slot.

    The wrapped array is treated as immutable by every public operation;
    ``grad`` is only written by :meth:`Tape.backward`. ``requires_grad`` is
    False for a constant (the default, and every :meth:`detach` copy), True
    for a trainable parameter and for the output of every recorded step.
    Gradients reach only tensors that require one.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if any(d == 0 for d in arr.shape):
            raise ShapeError(f"tensor dims must be >= 1, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A copy that is a fresh leaf: no backward step reaches past it."""
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# ---------------------------------------------------------------------------
# Tape


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed primitives for one reverse pass.

    Execution order is a topological order of the graph, so replaying the
    steps reversed guarantees every node has received the gradient from all
    of its consumers before propagating to its inputs. Gradients accumulate
    additively across multiple uses of the same tensor.

    A tape is used once. :meth:`backward` drops each step as it runs it, and
    a step clears its output's gradient as it propagates it, so intermediates,
    the arrays their steps captured and their gradients are freed as the
    reverse pass goes; only leaves that require a gradient keep ``grad``.
    """

    def __init__(self) -> None:
        self._steps: list[Callable[[], None]] = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def __len__(self) -> int:
        return len(self._steps)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and replay recorded steps in reverse, freeing
        each one once it has run. Raises RuntimeError on a replayed tape."""
        if self._replayed:
            raise RuntimeError("this tape has already been replayed; "
                               "record the computation on a new tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._replayed = True
        loss.grad = np.ones_like(loss.data)
        while self._steps:
            self._steps.pop()()


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


# vjp(g, needs) -> one gradient per input, None where needs[i] is False.
JointVJP = Callable[[np.ndarray, tuple[bool, ...]], Iterable["np.ndarray | None"]]


def recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` records a step now: a tape is active and
    one of them requires a gradient. An op can keep what its backward needs
    only then."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def _record_joint(out: Tensor, inputs: Sequence[Tensor], vjp: JointVJP) -> None:
    """Record one step for all of ``inputs``. ``needs`` is fixed now: which
    inputs require a gradient. The gradients are accumulated as ``vjp`` yields
    them, so a lazy ``vjp`` frees each one before it computes the next."""
    if not recording(inputs):
        return
    needs = tuple(t.requires_grad for t in inputs)
    out.requires_grad = True
    tape = _active_tape()

    def step() -> None:
        g = out.grad
        if g is None:
            return
        out.grad = None
        for src, need, grad in zip(inputs, needs, vjp(g, needs)):
            if need:
                _accumulate(src, grad)

    tape._steps.append(step)


def _record(out: Tensor, *vjps: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> None:
    """One step with a VJP per input: each runs only if its input needs it."""
    _record_joint(out, [src for src, _ in vjps],
                  lambda g, needs: (fn(g) if need else None
                                    for (_, fn), need in zip(vjps, needs)))


def fused_op(data: np.ndarray, op: str, inputs: Sequence[Tensor], vjp: JointVJP) -> Tensor:
    """The result of an operation computed in plain numpy, as one primitive.

    ``data`` is checked finite and wrapped; while a tape is active, one step is
    recorded for all of ``inputs``, whose ``vjp(g, needs)`` returns every
    input's gradient at once (None where ``needs`` says it is not wanted), so
    work shared between the gradients is done once.
    """
    out = _finish(data, op)
    _record_joint(out, inputs, vjp)
    return out


def _finish(data: np.ndarray, op: str) -> Tensor:
    # Finiteness is part of the operation contract: no NaN/Inf escapes an op.
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op} produced non-finite values")
    return Tensor(data)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


# ---------------------------------------------------------------------------
# Linear algebra


def _swap(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors, or of two rank-3 stacks that share
    their leading (batch) axis: one product per batch entry."""
    _require(a.data.ndim == b.data.ndim and a.data.ndim in (2, 3),
             f"matmul needs two rank-2 or two rank-3 operands, got {a.shape} and {b.shape}")
    _require(a.shape[:-2] == b.shape[:-2] and a.shape[-1] == b.shape[-2],
             f"matmul inner dims differ: {a.shape} vs {b.shape}")
    out = _finish(a.data @ b.data, "matmul")
    _record(out, (a, lambda g: g @ _swap(b.data)), (b, lambda g: _swap(a.data) @ g))
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a rank-2 tensor or of each entry of a rank-3 stack."""
    _require(a.data.ndim in (2, 3), f"transpose needs rank 2 or 3, got {a.shape}")
    out = _finish(_swap(a.data).copy(), "transpose")
    _record(out, (a, lambda g: _swap(g).copy()))
    return out


def _inner(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """sum(a * b) along ``axis``, kept with size 1, with no product temporary."""
    ix = "abcdefgh"[:a.ndim]
    kept = ix.replace(ix[axis], "")
    return np.expand_dims(np.einsum(f"{ix},{ix}->{kept}", a, b), axis)


def unit_slices(a: np.ndarray, axis: int, eps: float = 1e-12) -> tuple:
    """Scale each slice of ``a`` along ``axis`` to unit L2 norm in place
    (slices with norm < eps become zeros), and return what
    :func:`unit_slices_back` needs besides the unit slices."""
    norms = np.sqrt(_inner(a, a, axis))
    live = norms >= eps
    dead = None if live.all() else ~live
    safe = np.where(live, norms, 1.0)
    a /= safe
    if dead is not None:
        np.copyto(a, 0.0, where=dead)
    return axis, safe, dead


def unit_slices_back(unit: np.ndarray, saved: tuple, g: np.ndarray, out: np.ndarray,
                     scratch: np.ndarray) -> np.ndarray:
    """Write the gradient of the raw slices for ``g``, the gradient of their
    ``unit`` slices, to ``out`` (which may be ``g``): (g - u (u . g)) / |a|,
    and zero on dead slices. ``scratch`` has unit's shape."""
    axis, safe, dead = saved
    np.multiply(unit, _inner(unit, g, axis), out=scratch)
    np.subtract(g, scratch, out=out)
    out /= safe
    if dead is not None:
        np.copyto(out, 0.0, where=dead)
    return out


def matmul_add(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out += a @ b`` for a 2-D ``out``, a block of columns at a time through
    a scratch of about 2**17 elements (1 MB): no second array of out's size."""
    cols = max(1, (1 << 17) // out.shape[0])
    scratch = np.empty((out.shape[0], min(cols, out.shape[1])))
    for j in range(0, out.shape[1], cols):
        part = scratch[:, :min(cols, out.shape[1] - j)]
        np.matmul(a, b[:, j:j + cols], out=part)
        out[:, j:j + cols] += part


# ---------------------------------------------------------------------------
# Convolutions
#
# No convolution builds the k*k-times-larger column matrix of its whole input:
# dense convs multiply channel blocks of columns no larger than the padded
# input, the depthwise kernel sums scaled slices of the flattened padded
# input, and a backward closure keeps only the padded input, rebuilding each
# block when it needs it.

# Wide elements per channel block of a depthwise conv (512 KB of float64).
# All k*k taps run over one block before the next, so it stays in cache.
_DEPTHWISE_BLOCK = 1 << 16


def _conv_out_size(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    _require(ho >= 1 and wo >= 1,
             f"convolution output is empty for input {h}x{w}, k={k}, "
             f"stride={stride}, padding={padding}")
    return ho, wo


def _pad_hw(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding)))


def _crop_hw(xp: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return xp
    return xp[:, padding:-padding, padding:-padding]


def _taps(k: int, stride: int, ho: int, wo: int) -> list[tuple[int, int, slice, slice]]:
    """(ki, kj, rows, cs) per tap: the slices of the padded input that the tap reads."""
    return [(ki, kj, slice(ki, ki + stride * ho, stride), slice(kj, kj + stride * wo, stride))
            for ki in range(k) for kj in range(k)]


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation (no kernel flip) with zero padding and per-channel bias.

    x is C_in x H x W, w is C_out x C_in x k x k, bias is C_out.
    """
    _require(x.data.ndim == 3, f"conv2d input must be CxHxW, got {x.shape}")
    _require(w.data.ndim == 4 and w.shape[2] == w.shape[3],
             f"conv2d kernel must be CoxCixkxk, got {w.shape}")
    _require(w.shape[1] == x.shape[0],
             f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    _require(bias.data.ndim == 1 and bias.shape[0] == w.shape[0],
             f"conv2d bias must have {w.shape[0]} entries, got {bias.shape}")
    if stride < 1 or padding < 0:
        raise ValueError(f"bad stride/padding: {stride}, {padding}")

    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    ho, wo = _conv_out_size(h, wd, k, stride, padding)
    kk, n = k * k, ho * wo
    xp = _pad_hw(x.data, padding)
    # Weight columns are ordered (channel, ki, kj), so the columns of input
    # channels [c0, c1) are the in-place slice w_mat[:, c0*kk:c1*kk].
    w_mat = w.data.reshape(cout, cin * kk)
    # A 1x1 stride-1 conv multiplies the input itself and needs no block.
    direct = k == 1 and stride == 1
    per_block = min(cin, max(1, xp.size // (kk * n)))
    blocks = [(c0, min(cin, c0 + per_block)) for c0 in range(0, cin, per_block)]
    taps = _taps(k, stride, ho, wo)

    def gather(c0: int, c1: int, buf: np.ndarray | None) -> np.ndarray:
        if direct:
            return xp[c0:c1].reshape(c1 - c0, n)
        cols = buf[:c1 - c0]
        for ki, kj, rows, cs in taps:
            cols[:, ki, kj] = xp[c0:c1, rows, cs]
        return cols.reshape((c1 - c0) * kk, n)

    def new_buf() -> np.ndarray | None:
        return None if direct else np.empty((per_block, k, k, ho, wo))

    buf = new_buf()
    out_mat = np.empty((cout, n))
    for i, (c0, c1) in enumerate(blocks):
        w_cols, cols = w_mat[:, c0 * kk:c1 * kk], gather(c0, c1, buf)
        if i:
            matmul_add(w_cols, cols, out_mat)
        else:
            np.matmul(w_cols, cols, out=out_mat)
    out_mat += bias.data[:, None]
    out = _finish(out_mat.reshape(cout, ho, wo), "conv2d")

    def back_x(g: np.ndarray) -> np.ndarray:
        g_mat = g.reshape(cout, n)
        if direct:
            return _crop_hw((w_mat.T @ g_mat).reshape(xp.shape), padding)
        dxp = np.zeros(xp.shape)
        for c0, c1 in blocks:
            dcols = (w_mat[:, c0 * kk:c1 * kk].T @ g_mat).reshape(c1 - c0, k, k, ho, wo)
            # Each tap writes to disjoint strided positions, so += is safe.
            for ki, kj, rows, cs in taps:
                dxp[c0:c1, rows, cs] += dcols[:, ki, kj]
        return _crop_hw(dxp, padding)

    def back_w(g: np.ndarray) -> np.ndarray:
        g_mat = g.reshape(cout, n)
        buf = new_buf()
        dw = np.empty((cout, cin * kk))
        for c0, c1 in blocks:
            np.matmul(g_mat, gather(c0, c1, buf).T, out=dw[:, c0 * kk:c1 * kk])
        return dw.reshape(w.shape)

    _record(out, (x, back_x), (w, back_w),
            (bias, lambda g: g.reshape(cout, n).sum(axis=1)))
    return out


def _depthwise_plan(shape: tuple[int, int, int], k: int):
    """Output size, wide length, per-tap flat slices and channel blocks of a
    stride-1 depthwise conv over a padded C x Hp x Wp map.

    Output (i, j) is element i*Wp + j of a channel's "wide" row of
    n = (ho - 1)*Wp + wo elements, and tap (ki, kj) reads the flattened padded
    map at ki*Wp + kj + i*Wp + j: one contiguous slice per tap, so each tap
    is one long inner loop per channel. Wide elements with j >= wo hold
    products of the next row's inputs and are never read back. A block holds
    about ``_DEPTHWISE_BLOCK`` wide elements (at least one channel).
    """
    c, hp, wp = shape
    ho, wo = hp - k + 1, wp - k + 1
    n = (ho - 1) * wp + wo
    taps = [(ki, kj, slice(ki * wp + kj, ki * wp + kj + n))
            for ki in range(k) for kj in range(k)]
    per_block = min(c, max(1, _DEPTHWISE_BLOCK // n))
    blocks = [slice(c0, min(c, c0 + per_block)) for c0 in range(0, c, per_block)]
    return ho, wo, n, taps, blocks


def _unwiden(wide: np.ndarray, ho: int, wo: int, wp: int) -> np.ndarray:
    """The (m, ho, wo) view of the outputs in an m x n block of wide rows."""
    s = wide.itemsize
    return np.lib.stride_tricks.as_strided(
        wide, (wide.shape[0], ho, wo), (wide.shape[1] * s, wp * s, s), writeable=True)


def depthwise_taps(xp: np.ndarray, w: np.ndarray, b: np.ndarray,
                   out: np.ndarray) -> None:
    """Write the stride-1 depthwise conv of the padded, C-contiguous
    C x Hp x Wp map ``xp`` with C x k x k kernels ``w`` and bias ``b`` to
    ``out`` (C x ho x wo).

    Each element sums its taps in (ki, kj) order, then adds the bias, however
    the channels are blocked.
    """
    c, hp, wp = xp.shape
    ho, wo, n, taps, blocks = _depthwise_plan(xp.shape, w.shape[1])
    flat = xp.reshape(c, hp * wp)
    wide = np.empty((blocks[0].stop, n))
    tmp = np.empty(wide.shape)
    for cb in blocks:
        m = cb.stop - cb.start
        acc, t, wb = wide[:m], tmp[:m], w[cb]
        for i, (ki, kj, sl) in enumerate(taps):
            np.multiply(flat[cb, sl], wb[:, ki, kj, None], out=t if i else acc)
            if i:
                acc += t
        np.add(_unwiden(acc, ho, wo, wp), b[cb, None, None], out=out[cb])


def depthwise_taps_back(g: np.ndarray, w: np.ndarray,
                        xp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of the padded input ``xp`` and of ``w`` for the gradient
    ``g`` of :func:`depthwise_taps`'s output.

    ``g`` is copied into wide rows whose extra elements stay zero, so the taps
    run over the same slices as the forward pass.
    """
    c, hp, wp = xp.shape
    ho, wo, n, taps, blocks = _depthwise_plan(xp.shape, w.shape[1])
    flat = xp.reshape(c, hp * wp)
    dxp = np.zeros((c, hp * wp))
    dw = np.empty(w.shape)
    wide = np.zeros((blocks[0].stop, n))
    tmp = np.empty(wide.shape)
    for cb in blocks:
        m = cb.stop - cb.start
        gw, t, wb = wide[:m], tmp[:m], w[cb]
        _unwiden(gw, ho, wo, wp)[...] = g[cb]
        for ki, kj, sl in taps:
            np.multiply(gw, wb[:, ki, kj, None], out=t)
            dxp[cb, sl] += t
            dw[cb, ki, kj] = np.einsum("cn,cn->c", flat[cb, sl], gw)
    return dxp.reshape(xp.shape), dw


# Row 2a + i: tap i of phase a's 2-tap kernel along one axis, as a sum of a
# 3x3 kernel's taps: [w0, w1 + w2] for phase 0, [w0 + w1, w2] for phase 1.
_UP_FOLD = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def upsample_conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """The 3x3 stride-1 padding-1 conv of x's nearest-neighbour 2x upsampling,
    computed at x's resolution with 4/9 of the multiply-adds.

    Output pixel (2i + a, 2j + b) reads only x's rows i - 1 + a, i + a and
    columns j - 1 + b, j + b: it is a 2x2 conv of x padded by one whose taps
    are the 3x3 taps folded along each axis by ``_UP_FOLD``. The four phase
    kernels run as one conv2d with 4 C_out output channels, phase (a, b) in
    rows (2a + b) C_out onwards, and its outputs are interleaved with the
    bias. The fold and the interleave are recorded steps, so the backward
    goes through conv2d's; the upsampled map is never built.
    """
    _require(w.data.ndim == 4 and w.shape[2:] == (3, 3) and bias.shape == w.shape[:1],
             f"upsample_conv2d needs a Co x Ci x 3 x 3 kernel and Co biases, "
             f"got {w.shape} and {bias.shape}")
    cout, cin = w.shape[:2]
    folded = (_UP_FOLD @ w.data @ _UP_FOLD.T).reshape(cout, cin, 2, 2, 2, 2)
    kernels = _finish(folded.transpose(2, 4, 0, 1, 3, 5).reshape(4 * cout, cin, 2, 2),
                      "upsample_conv2d")

    def back_w(g: np.ndarray) -> np.ndarray:
        g = g.reshape(2, 2, cout, cin, 2, 2).transpose(2, 3, 0, 4, 1, 5)
        return _UP_FOLD.T @ g.reshape(cout, cin, 4, 4) @ _UP_FOLD

    _record(kernels, (w, back_w))
    y = conv2d(x, kernels, Tensor(np.zeros(4 * cout)), 1, 1)
    h, wd = y.shape[1] - 1, y.shape[2] - 1
    phases = [(a, b, slice((2 * a + b) * cout, (2 * a + b + 1) * cout))
              for a in (0, 1) for b in (0, 1)]
    out_data = np.empty((cout, 2 * h, 2 * wd))
    for a, b, p in phases:
        np.add(y.data[p, a:a + h, b:b + wd], bias.data[:, None, None],
               out=out_data[:, a::2, b::2])
    out = _finish(out_data, "upsample_conv2d")

    def back_y(g: np.ndarray) -> np.ndarray:
        dy = np.zeros(y.shape)
        for a, b, p in phases:
            dy[p, a:a + h, b:b + wd] = g[:, a::2, b::2]
        return dy

    _record(out, (y, back_y), (bias, lambda g: g.reshape(cout, -1).sum(axis=1)))
    return out


# ---------------------------------------------------------------------------
# Pointwise nonlinearities


# Phi is tabulated on the grid x_k = k / 128 over [-40, 9]: Phi(9) rounds to
# 1.0 and Phi(-40) underflows to 0.0, so clipping to the grid changes nothing.
_CDF_STEP = 128
_CDF_LO, _CDF_HI = -40.0, 9.0
_CDF_CHUNK = 8192


def _cdf_tables() -> tuple[np.ndarray, np.ndarray]:
    """Degree-5 Taylor coefficients of Phi at every grid point x_k, scaled to
    the offset u = 128 (x - x_k): c_j = Phi^(j)(x_k) / (j! 128^j).

    Phi^(0) comes from ``math.erfc``; for j >= 1, Phi^(j) = (-1)^(j-1)
    He_{j-1}(x) phi(x) with the probabilists' Hermite polynomials. The rows
    (c5, c4, c3, c2) and (c1, c0) are viewed as single 32- and 16-byte items,
    so one gather fetches each group.
    """
    xs = np.arange(_CDF_LO * _CDF_STEP, _CDF_HI * _CDF_STEP + 1) / _CDF_STEP
    he = [np.ones_like(xs), xs]
    for n in range(1, 4):
        he.append(xs * he[n] - n * he[n - 1])
    pdf = np.exp(-0.5 * xs * xs) * _INV_SQRT2PI
    coef = [np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in xs.tolist()])]
    coef += [(-1) ** (j - 1) * he[j - 1] * pdf / (math.factorial(j) * _CDF_STEP**j)
             for j in range(1, 6)]

    def rows(js: tuple[int, ...]) -> np.ndarray:
        table = np.stack([coef[j] for j in js], axis=1)
        return table.view(np.dtype((np.void, table.itemsize * len(js)))).reshape(-1)

    return rows((5, 4, 3, 2)), rows((1, 0))


_CDF_HIGH, _CDF_LOW = _cdf_tables()


def gauss_cdf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The standard normal CDF Phi(x), elementwise: GELU(x) = x * Phi(x).

    Table lookup and a degree-5 Taylor polynomial. With x clipped to
    [-40, 9], s = 128 x, r = rint(s) and u = s - r (all exact, |u| <= 1/2),
    Phi(x) is Horner's rule in u over the coefficients at grid point r / 128.
    It is within 2.5e-16 of 0.5 * erfc(-x / sqrt(2)) everywhere and within
    1e-11 of it relatively for x >= -8; Phi(0) is 0.5, Phi is 1.0 from 9 up
    and 0.0 from -40 down, and Phi(NaN) is NaN. The work runs in chunks of
    8192 elements, and an element's value does not depend on its chunk.
    """
    x = np.asarray(x, dtype=np.float64)
    res = out if out is not None and out.flags.c_contiguous else np.empty(x.shape)
    xs, ys = x.reshape(-1), res.reshape(-1)
    m = max(1, min(_CDF_CHUNK, xs.size))
    # One scratch block per call: with five separate buffers, a 256x256
    # inpaint process's peak RSS was 10 MB higher in about a third of runs.
    scratch = np.empty(9 * m)
    u, r, k = scratch[:m], scratch[m:2 * m], scratch[2 * m:3 * m].view(np.intp)
    high, low = scratch[3 * m:7 * m].view(_CDF_HIGH.dtype), scratch[7 * m:].view(_CDF_LOW.dtype)
    # A NaN stays NaN in u and so in the result. Its index is an arbitrary
    # integer (the cast is silenced) that mode="clip" keeps inside the table.
    with np.errstate(invalid="ignore"):
        for a in range(0, xs.size, m):
            n = min(m, xs.size - a)
            un, rn, kn, y = u[:n], r[:n], k[:n], ys[a:a + n]
            np.clip(xs[a:a + n], _CDF_LO, _CDF_HI, out=un)
            un *= _CDF_STEP
            np.rint(un, out=rn)
            un -= rn
            np.subtract(rn, _CDF_LO * _CDF_STEP, out=kn, casting="unsafe")
            c5432 = np.take(_CDF_HIGH, kn, out=high[:n], mode="clip").view(np.float64)
            c10 = np.take(_CDF_LOW, kn, out=low[:n], mode="clip").view(np.float64)
            np.multiply(c5432[0::4], un, out=y)
            for c in (c5432[1::4], c5432[2::4], c5432[3::4], c10[0::2]):
                y += c
                y *= un
            y += c10[1::2]
    if out is not None and res is not out:
        out[...] = res
        return out
    return res


def gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx of x * Phi(x), given ``cdf`` = Phi(x)."""
    return cdf + x * np.exp(-0.5 * x**2) * _INV_SQRT2PI


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF Phi."""
    phi = gauss_cdf(x.data)
    out = _finish(x.data * phi, "gelu")
    _record(out, (x, lambda g: g * gelu_slope(x.data, phi)))
    return out


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = _finish(t, "tanh")
    _record(out, (x, lambda g: g * (1.0 - t * t)))
    return out


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = _finish(s, "sigmoid")
    _record(out, (x, lambda g: g * s * (1.0 - s)))
    return out


# The negative-side slope of every leaky ReLU, and the floor of every clamped
# log (the losses' logs of sigmoid scores).
_LEAKY_SLOPE = 0.2
_LOG_FLOOR = 1e-12


def leaky_relu(x: Tensor) -> Tensor:
    factor = np.where(x.data >= 0, 1.0, _LEAKY_SLOPE)
    out = _finish(x.data * factor, "leaky_relu")
    _record(out, (x, lambda g: g * factor))
    return out


def log_clamped(x: Tensor) -> Tensor:
    """log(max(x, _LOG_FLOOR)); gradient is zero on the clamped region."""
    live = x.data > _LOG_FLOOR
    out = _finish(np.log(np.maximum(x.data, _LOG_FLOOR)), "log_clamped")
    _record(out, (x, lambda g: np.where(live, g / np.maximum(x.data, _LOG_FLOOR), 0.0)))
    return out


def absolute(x: Tensor) -> Tensor:
    sign = np.sign(x.data)
    out = _finish(np.abs(x.data), "absolute")
    _record(out, (x, lambda g: g * sign))
    return out


# ---------------------------------------------------------------------------
# Elementwise / structural


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    _require(a.shape == b.shape, f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = _finish(a.data + b.data, "add")
    _record(out, (a, lambda g: g), (b, lambda g: g))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = _finish(a.data - b.data, "sub")
    _record(out, (a, lambda g: g), (b, lambda g: -g))
    return out


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "hadamard")
    out = _finish(a.data * b.data, "hadamard")
    _record(out, (a, lambda g: g * b.data), (b, lambda g: g * a.data))
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    if not math.isfinite(s):
        raise NonFiniteError(f"scale factor is not finite: {s}")
    out = _finish(a.data * s, "scale")
    _record(out, (a, lambda g: g * s))
    return out


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two CxHxW maps along the channel axis."""
    _require(a.data.ndim == 3 and b.data.ndim == 3,
             f"concat_channels needs CxHxW inputs, got {a.shape} and {b.shape}")
    _require(a.shape[1:] == b.shape[1:],
             f"concat_channels spatial mismatch: {a.shape} vs {b.shape}")
    c1 = a.shape[0]
    out = _finish(np.concatenate([a.data, b.data], axis=0), "concat_channels")
    _record(out, (a, lambda g: g[:c1]), (b, lambda g: g[c1:]))
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values, row-major, in a shape of equal size: a view, not a copy."""
    _require(math.prod(shape) == a.size, f"cannot reshape {a.shape} to {shape}")
    out = _finish(a.data.reshape(shape), "reshape")
    _record(out, (a, lambda g: g.reshape(a.shape)))
    return out


def sum_all(a: Tensor) -> Tensor:
    out = _finish(np.asarray(a.data.sum()), "sum_all")
    _record(out, (a, lambda g: np.full(a.shape, float(g))))
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    out = _finish(np.asarray(a.data.mean()), "mean_all")
    _record(out, (a, lambda g: np.full(a.shape, float(g) / n)))
    return out


# Added to each site's variance before the square root.
_NORM_EPS = 1e-5


def layer_norm_sites(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize across channels at each spatial site, then apply a per-channel affine."""
    _require(x.data.ndim == 3, f"layer_norm_sites needs CxHxW, got {x.shape}")
    c = x.shape[0]
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"affine params must have shape ({c},), got {gamma.shape}, {beta.shape}")
    # Two C x H x W arrays: x-hat, and the output, which holds the squares first.
    xhat = x.data - x.data.mean(axis=0)
    out_data = np.multiply(xhat, xhat, out=np.empty(x.shape))
    inv = 1.0 / np.sqrt(out_data.mean(axis=0) + _NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gamma.data[:, None, None], out=out_data)
    out_data += beta.data[:, None, None]
    out = _finish(out_data, "layer_norm_sites")

    def back_x(g: np.ndarray) -> np.ndarray:
        gx = g * gamma.data[:, None, None]
        return inv * (gx - gx.mean(axis=0) - xhat * (gx * xhat).mean(axis=0))

    _record(out, (x, back_x),
            (gamma, lambda g: (g * xhat).sum(axis=(1, 2))),
            (beta, lambda g: g.sum(axis=(1, 2))))
    return out
