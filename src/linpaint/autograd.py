"""Trainable parameters, the layer base class, the AdamW update, and a
finite-difference gradient checker.

The reverse pass itself lives on :class:`linpaint.tensor.Tape`; this module adds
the pieces needed to train with it and to validate it.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .tensor import NonFiniteError, Tape, Tensor, make_rng

__all__ = ["Parameter", "Module", "adamw_step", "zero_grads", "finite_diff_check", "Tape"]


class Parameter(Tensor):
    """A trainable tensor: gradient slot plus AdamW first/second moment state.

    The moments are None until the parameter's first :func:`adamw_step`, so a
    model that is only run forward holds one copy of its weights.
    """

    __slots__ = ("name", "adam_m", "adam_v", "step_count")

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data)
        self.requires_grad = True
        self.name = name
        self.adam_m: np.ndarray | None = None
        self.adam_v: np.ndarray | None = None
        self.step_count = 0


class Module:
    """Base of every layer: :meth:`parameters` is derived from the attributes.

    Parameters are listed in registration order, the order in which their
    attributes were first assigned; a checkpoint stores them in that order.
    A layer therefore assigns attributes in the order its constructor draws
    their weights, and the constructor is the only statement of the layout.
    There is no shared ``__call__``: perfbench's tracer times layers by
    wrapping the ``__call__`` each layer class defines for itself.
    """

    def parameters(self) -> list[Parameter]:
        """Each ``Parameter`` attribute, and recursively those of each
        ``Module`` attribute and of lists and tuples of them; other values
        (configs, dicts, plain tensors) are skipped."""
        return _collect(vars(self).values())


def _collect(values: Iterable[object]) -> list[Parameter]:
    out: list[Parameter] = []
    for v in values:
        if isinstance(v, Parameter):
            out.append(v)
        elif isinstance(v, Module):
            out += v.parameters()
        elif isinstance(v, (list, tuple)):
            out += _collect(v)
    return out


def _conv_params(rng: np.random.Generator, cout: int, cin: int, k: int,
                 name: str, gain: float = 1.0) -> tuple[Parameter, Parameter]:
    """A convolution's weight, drawn from N(0, gain^2 / (cin k k)), and its zero bias."""
    # Variance-preserving init (gain 1): most convolutions here feed residual
    # sums or further linear maps, not ReLU-family activations, so a sqrt(2)
    # gain would compound across the depth and saturate the output tanh.
    std = gain * math.sqrt(1.0 / (cin * k * k))
    w = Parameter(rng.normal(0.0, std, size=(cout, cin, k, k)), name=f"{name}.w")
    b = Parameter(np.zeros(cout), name=f"{name}.b")
    return w, b


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# Adam's usual moment decay rates (beta1, beta2) and denominator floor (eps).
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

# Elements per slice of a parameter that AdamW updates at a time: its scratch
# and its slices of the value, the moments and the gradient stay in cache.
_ADAM_CHUNK = 8192


def adamw_step(params: Sequence[Parameter], lr: float, weight_decay: float = 0.0) -> None:
    """One decoupled-weight-decay Adam update; clears gradients afterwards.

    Decay multiplies the value by (1 - lr*weight_decay) before the Adam term,
    so decay alone never touches the moment estimates. Each parameter is
    updated in slices of ``_ADAM_CHUNK`` elements of its flat view, in the
    operation order of ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, through two
    chunk-sized scratch buffers shared by all parameters. Every operation is
    elementwise, so the bits are those of whole-array passes. Past a
    parameter's first update, whose zeroed moments it allocates, it allocates
    nothing parameter-sized.

    A non-finite gradient raises :class:`NonFiniteError` naming its
    parameter before anything is updated.
    """
    size = min(max((p.size for p in params), default=0), _ADAM_CHUNK)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    finite = np.empty(size, dtype=bool)
    for p in params:
        if p.grad is not None and not all(
                np.isfinite(g, out=finite[:g.size]).all() for g in _chunks(p.grad)):
            raise NonFiniteError(f"gradient of {p.name!r} is non-finite")
    decay = 1.0 - lr * weight_decay
    for p in params:
        p.step_count += 1
        if p.adam_m is None:
            p.adam_m, p.adam_v = np.zeros(p.shape), np.zeros(p.shape)
        bias1, bias2 = 1.0 - _BETA1**p.step_count, 1.0 - _BETA2**p.step_count
        grads = repeat(None) if p.grad is None else _chunks(p.grad)
        for data, m, v, g in zip(_chunks(p.data), _chunks(p.adam_m),
                                 _chunks(p.adam_v), grads):
            a, b = scratch_a[:data.size], scratch_b[:data.size]
            if weight_decay != 0.0:
                data *= decay
            m *= _BETA1
            v *= _BETA2
            if g is not None:
                np.multiply(g, 1.0 - _BETA1, out=a)
                m += a
                np.multiply(g, g, out=a)
                a *= 1.0 - _BETA2
                v += a
            np.divide(m, bias1, out=a)     # m_hat
            np.divide(v, bias2, out=b)     # v_hat
            np.sqrt(b, out=b)
            b += _ADAM_EPS
            a *= lr
            a /= b
            data -= a
        p.grad = None


def _chunks(arr: np.ndarray) -> Iterator[np.ndarray]:
    """``_ADAM_CHUNK``-element slices of ``arr``'s flat view (a view, since
    parameter values and moments are C-contiguous)."""
    flat = arr.reshape(-1)
    for lo in range(0, flat.size, _ADAM_CHUNK):
        yield flat[lo:lo + _ADAM_CHUNK]


# The central-difference step of every gradient check.
_FD_STEP = 1e-5


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Parameter],
                      coords_per_param: int | None = None, seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` rebuilds its computation from the current parameter values and
    returns a scalar. Every coordinate of every parameter is checked unless
    ``coords_per_param`` limits each parameter to a seeded random subset
    (needed to keep large-model checks tractable).
    """
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    zero_grads(params)

    rng = make_rng(seed)
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if coords_per_param is None or coords_per_param >= n:
            coords = range(n)
        else:
            coords = rng.choice(n, size=coords_per_param, replace=False)
        an_flat = an.reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + _FD_STEP
            f_plus = f().item()
            flat[idx] = orig - _FD_STEP
            f_minus = f().item()
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * _FD_STEP)
            worst = max(worst, _rel_err(fd, float(an_flat[idx])))
    return worst
