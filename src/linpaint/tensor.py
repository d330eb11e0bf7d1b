"""Dense float64 tensors and the differentiable primitives everything else is built on.

Values are numpy arrays wrapped in :class:`Tensor` nodes. Operations are pure:
they never modify their inputs and allocate fresh outputs, except
:func:`reshape`, whose output is a view of its input. When a
:class:`Tape` is active, an operation with an input that ``requires_grad``
records a backward step for those inputs only; an operation on constants
records nothing. The tape replays its steps once, in exact reverse order,
freeing each step and intermediate gradient as it goes. :func:`fused_op`
makes a computation written in plain numpy elsewhere one primitive, whose
single step returns the gradients of all its inputs at once; it runs the
same code with or without a tape, and only a recorded step keeps its backward.

GELU's Gaussian CDF, :func:`gauss_cdf`, is plain numpy too: degree-5 Taylor
coefficients of Phi tabulated at k/128 over [-40, 9], built at import from
``math.erfc``, gathered per element and evaluated by Horner's rule. It is
within 2.5e-16 of ``0.5 * erfc(-x / sqrt(2))`` absolutely, and within 1e-11
relatively for x >= -8. It serves :func:`geglu_band` and its backward, the
band map W_o (u z Phi(z)) of both gated units, on the caller's buffers.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "Tensor",
    "Tape",
    "make_rng",
    "fused_op",
    "matmul",
    "transpose",
    "conv2d",
    "upsample_conv2d",
    "tanh",
    "sigmoid",
    "leaky_relu",
    "log_clamped",
    "absolute",
    "add",
    "sub",
    "hadamard",
    "scale",
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


class _GradSlot:
    """Where a tensor's gradient lives. A recorded step holds the slots of its
    output and inputs, never the tensors, so a tensor's array is freed once
    neither its caller nor a backward closure that reads it holds it."""

    __slots__ = ("grad",)

    def __init__(self) -> None:
        self.grad: np.ndarray | None = None


class Tensor:
    """A dense n-dimensional float64 array, row-major, with a gradient slot.

    The wrapped array is treated as immutable by every public operation;
    ``grad`` is only written by :meth:`Tape.backward`. ``requires_grad`` is
    False for a constant (the default, and every :meth:`detach` copy), True
    for a trainable parameter and for the output of every recorded step.
    Gradients reach only tensors that require one.
    """

    __slots__ = ("data", "_slot", "requires_grad")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if any(d == 0 for d in arr.shape):
            raise ShapeError(f"tensor dims must be >= 1, got shape {arr.shape}")
        self.data = arr
        self._slot = _GradSlot()
        self.requires_grad = False

    @property
    def grad(self) -> np.ndarray | None:
        return self._slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._slot.grad = g

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
# The tapes whose backward is running, innermost last.
_REPLAYING: list["Tape"] = []


class Tape:
    """Ordered record of executed primitives for one reverse pass.

    Execution order is a topological order of the graph, so replaying the
    steps reversed guarantees every node has received the gradient from all
    of its consumers before propagating to its inputs. Gradients accumulate
    additively across multiple uses of the same tensor.

    A step holds its output's and inputs' gradient slots and the arrays its
    backward reads, never a tensor, so an intermediate whose array no
    backward reads is freed as soon as the caller drops it. A tape is used
    once. :meth:`backward` drops each step as it runs it, and a step clears
    its output's gradient as it propagates it, so the arrays the steps
    captured and the gradients are freed as the reverse pass goes; only
    leaves that require a gradient keep ``grad``.

    While it replays, the tape owns the gradient arrays that nothing else
    references, and adds a further contribution into an owned ``grad`` in
    place. It owns each sum ``grad + g`` it builds, and takes over a step's
    result when the result is writeable, shares no memory with the step's
    incoming gradient and shares none with another live result of the step.
    That rests on the contract of every backward function: each gradient it
    returns is either a new array that nothing else references, or the
    incoming gradient or a view of it. The tape holds its owned arrays by
    weak reference only, and ownership ends when :meth:`backward` returns,
    so a gradient that outlives one backward is never written by another.
    """

    def __init__(self) -> None:
        self._steps: list[Callable[[], None]] = []
        self._replayed = False
        self._owned: dict[int, weakref.ref] = {}

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def __len__(self) -> int:
        return len(self._steps)

    def _owns(self, a: np.ndarray) -> bool:
        ref = self._owned.get(id(a))
        return ref is not None and ref() is a

    def _own(self, a: np.ndarray) -> None:
        if isinstance(a, np.ndarray):
            self._owned[id(a)] = weakref.ref(a)

    def _disown(self, a: np.ndarray) -> None:
        self._owned.pop(id(a), None)

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
        _REPLAYING.append(self)
        try:
            while self._steps:
                self._steps.pop()()
        finally:
            _REPLAYING.pop()
            self._owned.clear()


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _owned_grad(slot: _GradSlot) -> np.ndarray | None:
    """``slot.grad`` if the tape replaying now owns it and it is C-contiguous:
    a backward function may then add the slot's tensor's gradient into it
    itself, and return None for that tensor."""
    g = slot.grad
    if g is None or not _REPLAYING or not g.flags.c_contiguous:
        return None
    return g if _REPLAYING[-1]._owns(g) else None


def _accumulate(tape: Tape, slot: _GradSlot, g: np.ndarray, fresh: bool) -> None:
    """Add ``g`` to ``slot.grad``: in place if ``tape`` owns ``slot.grad``,
    else as a new array that it owns. ``fresh``: nothing else references
    ``g``, so the tape takes it over when it becomes ``slot.grad``."""
    if slot.grad is None:
        slot.grad = g
        if fresh:
            tape._own(g)
    elif tape._owns(slot.grad):
        slot.grad += g
    else:
        slot.grad = slot.grad + g
        tape._own(slot.grad)


# vjp(g, needs) -> one gradient per input, None where needs[i] is False.
JointVJP = Callable[[np.ndarray, tuple[bool, ...]], Iterable["np.ndarray | None"]]


def _record_joint(out: Tensor, inputs: Sequence[Tensor], vjp: JointVJP) -> None:
    """Record one step for all of ``inputs`` while a tape is active and one
    of them requires a gradient. ``needs`` is fixed now: which inputs require
    a gradient. The gradients are accumulated as ``vjp`` yields them, so a
    lazy ``vjp`` frees each one before it computes the next. The
    step holds the gradient slots of ``out`` and ``inputs``, not the tensors,
    so ``vjp`` must capture every array it reads.

    ``vjp`` follows the contract in :class:`Tape`: each gradient is a new
    array that nothing else references, or ``g`` or a view of ``g``. It may
    yield None for an input whose gradient it added into that input's owned
    ``grad`` itself (:func:`_owned_grad`)."""
    tape = _active_tape()
    needs = tuple(t.requires_grad for t in inputs)
    if tape is None or not any(needs):
        return
    out.requires_grad = True
    out_slot, slots = out._slot, tuple(t._slot for t in inputs)

    def step() -> None:
        g = out_slot.grad
        if g is None:
            return
        out_slot.grad = None
        # Results may be g or views of it, so nothing owns g any more.
        tape._disown(g)
        results: list[weakref.ref] = []
        for slot, need, grad in zip(slots, needs, vjp(g, needs)):
            if not need or grad is None:
                continue
            # A numpy scalar is immutable, so nothing can alias it.
            fresh = isinstance(grad, np.ndarray)
            if fresh:
                fresh = grad.flags.writeable and not np.may_share_memory(grad, g)
                for ref in results:
                    other = ref()
                    if other is not None and np.may_share_memory(grad, other):
                        fresh = False
                        tape._disown(other)
                results.append(weakref.ref(grad))
            _accumulate(tape, slot, grad, fresh)

    tape._steps.append(step)


def _record(out: Tensor, *vjps: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> None:
    """One step with a VJP per input: the step keeps the VJPs of the inputs
    that need a gradient, and neither input tensors nor the others."""
    fns = [fn if src.requires_grad else None for src, fn in vjps]
    _record_joint(out, [src for src, _ in vjps],
                  lambda g, needs: (None if fn is None else fn(g) for fn in fns))


def fused_op(data: np.ndarray, op: str, inputs: Sequence[Tensor], vjp: JointVJP) -> Tensor:
    """The result of an operation computed in plain numpy, as one primitive.

    ``data`` is checked finite and wrapped; while a tape is active, one step is
    recorded for all of ``inputs``, whose ``vjp(g, needs)`` returns every
    input's gradient at once (None where ``needs`` says it is not wanted), so
    work shared between the gradients is done once. Each gradient is either a
    new array that nothing else references, or ``g`` or a view of ``g``: the
    tape may take a new array over and add into it in place.
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    _require(a.data.ndim == 2 and b.data.ndim == 2,
             f"matmul needs two rank-2 operands, got {a.shape} and {b.shape}")
    _require(a.shape[1] == b.shape[0], f"matmul inner dims differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    out = _finish(ad @ bd, "matmul")
    _record(out, (a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g))
    return out


def transpose(a: Tensor) -> Tensor:
    """The transpose of a rank-2 tensor."""
    _require(a.data.ndim == 2, f"transpose needs rank 2, got {a.shape}")
    out = _finish(a.data.T.copy(), "transpose")
    _record(out, (a, lambda g: g.T.copy()))
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
    saved = axis, np.where(live, norms, 1.0), None if live.all() else ~live
    rescale_slices(a, saved)
    return saved


def rescale_slices(a: np.ndarray, saved: tuple) -> None:
    """Scale ``a``'s slices in place as the :func:`unit_slices` call that
    returned ``saved`` scaled its input: the same input gives the same bits."""
    _, safe, dead = saved
    a /= safe
    if dead is not None:
        np.copyto(a, 0.0, where=dead)


def unit_slices_back(unit: np.ndarray, saved: tuple, g: np.ndarray) -> np.ndarray:
    """Overwrite ``unit``, the unit slices, with the gradient of the raw
    slices for ``g``, the gradient of the unit ones: (g - u (u . g)) / |a|,
    and zero on dead slices."""
    axis, safe, dead = saved
    unit *= _inner(unit, g, axis)
    np.subtract(g, unit, out=unit)
    unit /= safe
    if dead is not None:
        np.copyto(unit, 0.0, where=dead)
    return unit


# Elements per channel of one band of a banded op (48 KB of float64). The
# fused feed-forward unit and the attention core run over bands of rows (image
# rows or tokens), so their scratch is the op's channel count times this, at
# any resolution. Each channel's row of a band stays long: on a 2-vCPU x86-64
# machine the depthwise taps ran about twice as slowly per element on rows of
# 1500 elements as on rows of 6000.
_BAND = 6144


def row_bands(rows: int, row_size: int) -> list[tuple[int, int]]:
    """Split ``rows`` rows of ``row_size`` elements (per channel) into bands
    [r0, r1) of about ``_BAND`` elements (at least one row), as even as they
    can be; the first band is the widest."""
    count = -(-rows // max(1, _BAND // row_size))
    per = -(-rows // count)
    return [(r0, min(rows, r0 + per)) for r0 in range(0, rows, per)]


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
# input (a block never straddles two parts of a channel stack, so the stack is
# never built), the depthwise kernel sums scaled slices of the flattened padded
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


def conv2d(x: Tensor | Sequence[Tensor], w: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2D cross-correlation (no kernel flip) with zero padding and per-channel bias.

    x is C_in x H x W, or a sequence of maps of one size whose channel stack
    is the C_in-channel input (the stack is never built); w is
    C_out x C_in x k x k, bias is C_out.
    """
    parts = [x] if isinstance(x, Tensor) else list(x)
    _require(len(parts) > 0 and all(p.data.ndim == 3 and p.shape[1:] == parts[0].shape[1:]
                                    for p in parts),
             f"conv2d input must be CxHxW maps of one size, got {[p.shape for p in parts]}")
    _require(w.data.ndim == 4 and w.shape[2] == w.shape[3],
             f"conv2d kernel must be CoxCixkxk, got {w.shape}")
    _require(w.shape[1] == sum(p.shape[0] for p in parts),
             f"conv2d channel mismatch: input {[p.shape for p in parts]} vs kernel {w.shape}")
    _require(bias.data.ndim == 1 and bias.shape[0] == w.shape[0],
             f"conv2d bias must have {w.shape[0]} entries, got {bias.shape}")
    if stride < 1 or padding < 0:
        raise ValueError(f"bad stride/padding: {stride}, {padding}")

    cout, cin, k, _ = w.shape
    _, h, wd = parts[0].shape
    ho, wo = _conv_out_size(h, wd, k, stride, padding)
    kk, n = k * k, ho * wo
    xps = [_pad_hw(p.data, padding) for p in parts]
    # Weight columns are ordered (channel, ki, kj), so the columns of stacked
    # input channels [c0, c1) are the in-place slice w_mat[:, c0*kk:c1*kk].
    w_mat = w.data.reshape(cout, cin * kk)
    # A 1x1 stride-1 conv multiplies each part itself, in one block per part.
    direct = k == 1 and stride == 1
    per_block = min(max(len(xp) for xp in xps),
                    max(1, sum(xp.size for xp in xps) // (kk * n)))
    # (part, c0, c1, weight columns) per block of a part's channels [c0, c1):
    # no block straddles two parts.
    blocks, base = [], 0
    for i, xp in enumerate(xps):
        for c0 in range(0, len(xp), per_block):
            c1 = min(len(xp), c0 + per_block)
            blocks.append((i, c0, c1, slice((base + c0) * kk, (base + c1) * kk)))
        base += len(xp)
    taps = _taps(k, stride, ho, wo)

    def gather(i: int, c0: int, c1: int, buf: np.ndarray | None) -> np.ndarray:
        if direct:
            return xps[i][c0:c1].reshape(c1 - c0, n)
        cols = buf[:c1 - c0]
        for ki, kj, rows, cs in taps:
            cols[:, ki, kj] = xps[i][c0:c1, rows, cs]
        return cols.reshape((c1 - c0) * kk, n)

    def new_buf() -> np.ndarray | None:
        return None if direct else np.empty((per_block, k, k, ho, wo))

    buf = new_buf()
    out_mat = np.empty((cout, n))
    for j, (i, c0, c1, wc) in enumerate(blocks):
        if j:
            matmul_add(w_mat[:, wc], gather(i, c0, c1, buf), out_mat)
        else:
            np.matmul(w_mat[:, wc], gather(i, c0, c1, buf), out=out_mat)
    out_mat += bias.data[:, None]
    out = _finish(out_mat.reshape(cout, ho, wo), "conv2d")

    def back_x(part: int) -> Callable[[np.ndarray], np.ndarray]:
        """The gradient of one part, from its own weight columns."""
        xp, mine = xps[part], [b[1:] for b in blocks if b[0] == part]

        def vjp(g: np.ndarray) -> np.ndarray:
            g_mat = g.reshape(cout, n)
            if direct:
                return _crop_hw((w_mat[:, mine[0][2]].T @ g_mat).reshape(xp.shape), padding)
            dxp = np.zeros(xp.shape)
            for c0, c1, wc in mine:
                dcols = (w_mat[:, wc].T @ g_mat).reshape(c1 - c0, k, k, ho, wo)
                # Each tap writes to disjoint strided positions, so += is safe.
                for ki, kj, rows, cs in taps:
                    dxp[c0:c1, rows, cs] += dcols[:, ki, kj]
            return _crop_hw(dxp, padding)
        return vjp

    w_slot, w_shape = w._slot, w.shape

    def back_w(g: np.ndarray) -> np.ndarray | None:
        """The weight gradient, or None once it is added into the owned
        ``w.grad`` a block at a time through one block-sized scratch."""
        g_mat = g.reshape(cout, n)
        buf = new_buf()
        into = _owned_grad(w_slot)
        dw = np.empty((cout, cin * kk)) if into is None else into.reshape(cout, cin * kk)
        part = None if into is None else np.empty((cout, per_block * kk))
        for i, c0, c1, wc in blocks:
            cols = gather(i, c0, c1, buf).T
            if into is None:
                np.matmul(g_mat, cols, out=dw[:, wc])
            else:
                dw[:, wc] += np.matmul(g_mat, cols, out=part[:, :wc.stop - wc.start])
        return dw.reshape(w_shape) if into is None else None

    _record(out, *((p, back_x(i)) for i, p in enumerate(parts)), (w, back_w),
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


def depthwise_taps_back(g: np.ndarray, w: np.ndarray, xp: np.ndarray,
                        out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of the padded input ``xp``, written to ``out`` (C-contiguous,
    xp's shape), and of ``w`` for the gradient ``g`` of :func:`depthwise_taps`'s output.

    ``g`` is copied into wide rows whose extra elements stay zero, so the taps
    run over the same slices as the forward pass.
    """
    c, hp, wp = xp.shape
    ho, wo, n, taps, blocks = _depthwise_plan(xp.shape, w.shape[1])
    flat = xp.reshape(c, hp * wp)
    dxp = out.reshape(c, hp * wp)
    dxp.fill(0.0)
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
    y_shape = y.shape

    def back_y(g: np.ndarray) -> np.ndarray:
        dy = np.zeros(y_shape)
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


def geglu_band(w_o: np.ndarray, u: np.ndarray, z: np.ndarray, phi: np.ndarray,
               out: np.ndarray) -> None:
    """``out = w_o @ (u * z * Phi(z))`` for one band (the gated units' map
    before its bias); z is overwritten and ``phi`` is contiguous scratch."""
    gauss_cdf(z, out=phi)
    z *= phi
    z *= u
    np.matmul(w_o, z, out=out)


def geglu_band_back(w_o: np.ndarray, g: np.ndarray, u: np.ndarray, z: np.ndarray,
                    phi: np.ndarray, slope: np.ndarray, du: np.ndarray, dz: np.ndarray,
                    d_wo: np.ndarray) -> None:
    """For :func:`geglu_band`'s output gradient ``g``: add w_o's gradient into
    ``d_wo``, write u's and z's into ``du`` and ``dz`` (which may be z), and
    overwrite z. ``phi`` (contiguous; may be du) holds Phi(z) and ``slope``
    (may be dz) GELU'(z) = Phi(z) + z phi(z) until then. Each product keeps
    the separate gate op's order, and so its bits."""
    gauss_cdf(z, out=phi)
    np.multiply(z, z, out=slope)
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= z
    slope *= _INV_SQRT2PI
    slope += phi
    act = np.multiply(phi, z, out=du)
    d_wo += g @ np.multiply(u, act, out=z).T
    d_gated = np.matmul(w_o.T, g, out=z)
    du *= d_gated
    d_gated *= u
    np.multiply(d_gated, slope, out=dz)


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
    # A bool mask, not a float factor map: x * 1.0 is x, so np.where gives
    # the product's bits.
    live = x.data >= 0
    out = _finish(np.where(live, x.data, x.data * _LEAKY_SLOPE), "leaky_relu")
    _record(out, (x, lambda g: np.where(live, g, g * _LEAKY_SLOPE)))
    return out


def log_clamped(x: Tensor) -> Tensor:
    """log(max(x, _LOG_FLOOR)); gradient is zero on the clamped region."""
    xd = x.data
    live = xd > _LOG_FLOOR
    out = _finish(np.log(np.maximum(xd, _LOG_FLOOR)), "log_clamped")
    _record(out, (x, lambda g: np.where(live, g / np.maximum(xd, _LOG_FLOOR), 0.0)))
    return out


def absolute(x: Tensor) -> Tensor:
    # -1, 0 and 1 are exact in int8, and g * sign gives the float sign's bits.
    sign = np.sign(x.data, out=np.empty(x.shape, np.int8), casting="unsafe")
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
    ad, bd = a.data, b.data
    out = _finish(ad * bd, "hadamard")
    _record(out, (a, lambda g: g * bd), (b, lambda g: g * ad))
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    if not math.isfinite(s):
        raise NonFiniteError(f"scale factor is not finite: {s}")
    out = _finish(a.data * s, "scale")
    _record(out, (a, lambda g: g * s))
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values, row-major, in a shape of equal size: a view, not a copy."""
    _require(math.prod(shape) == a.size, f"cannot reshape {a.shape} to {shape}")
    out = _finish(a.data.reshape(shape), "reshape")
    a_shape = a.shape
    _record(out, (a, lambda g: g.reshape(a_shape)))
    return out


# The gradients of sum_all and mean_all are read-only broadcast views of a
# scalar, which the tape never owns.


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    out = _finish(np.asarray(a.data.sum()), "sum_all")
    _record(out, (a, lambda g: np.broadcast_to(g, shape)))
    return out


def mean_all(a: Tensor) -> Tensor:
    shape, n = a.shape, a.size
    out = _finish(np.asarray(a.data.mean()), "mean_all")
    _record(out, (a, lambda g: np.broadcast_to(g / n, shape)))
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

    gd = gamma.data

    def back_x(g: np.ndarray) -> np.ndarray:
        gx = g * gd[:, None, None]
        return inv * (gx - gx.mean(axis=0) - xhat * (gx * xhat).mean(axis=0))

    _record(out, (x, back_x),
            (gamma, lambda g: (g * xhat).sum(axis=(1, 2))),
            (beta, lambda g: g.sum(axis=(1, 2))))
    return out
