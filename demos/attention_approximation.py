"""How close is linearized attention to the softmax original, and why?

Walks through the three claims behind the linear operator:
  1. The reordered O(N C^2) computation is numerically identical to building
     the N x N weight matrix.
  2. With unit-normalized queries/keys scaled so the logits shrink, the gap
     to exact softmax attention closes quadratically (the 1+x expansion's
     remainder).
  3. The value shortcut and the gate are live, separate switches.

Run: python demos/attention_approximation.py
"""

import math

import numpy as np

from linpaint.attention import (
    AttentionConfig,
    ProjectionSet,
    gated_attention,
    taylor_attention_quadratic,
    taylor_linear_attention,
    vanilla_attention,
)
from linpaint.tensor import Tensor, make_rng


def main() -> None:
    rng = make_rng(0)

    print("1) reordered vs materialized weights")
    print("   mode        N     C    max |linear - quadratic|")
    for mode in ("sum", "residual", "none"):
        for n, c in ((64, 8), (256, 16), (1024, 32)):
            q = rng.normal(size=(n, c))
            k = rng.normal(size=(n, c))
            v = rng.normal(size=(n, c))
            lin = taylor_linear_attention(Tensor(q), Tensor(k), Tensor(v), mode=mode)
            quad = taylor_attention_quadratic(q, k, v, mode=mode)
            print(f"   {mode:<9s} {n:5d} {c:5d}    {np.abs(lin.data - quad).max():.3e}")

    print()
    print("2) approach to exact softmax attention as the logits shrink")
    n, c = 48, 8
    qh = rng.normal(size=(n, c))
    qh /= np.linalg.norm(qh, axis=1, keepdims=True)
    kh = rng.normal(size=(n, c))
    kh /= np.linalg.norm(kh, axis=1, keepdims=True)
    v = rng.normal(size=(n, c))
    print("   logit scale s    max |softmax - taylor|")
    errs, scales = [], [0.2, 0.1, 0.05, 0.025]
    for s in scales:
        f = math.sqrt(s)
        soft = vanilla_attention(f * qh, f * kh, v)
        lin = taylor_linear_attention(Tensor(f * qh), Tensor(f * kh), Tensor(v),
                                      mode="sum", normalize_qk=False)
        err = float(np.abs(soft - lin.data).max())
        errs.append(err)
        print(f"   {s:12.3f}    {err:.3e}")
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    print(f"   fitted log-log slope: {slope:.3f}  (2.0 = second-order remainder)")

    print()
    print("3) ablation switches")
    proj = ProjectionSet.init(8, rng)
    x = Tensor(rng.normal(size=(8, 8, 8)))
    base = gated_attention(x, proj, AttentionConfig(channels=8, heads=2)).data
    no_value = gated_attention(
        x, proj, AttentionConfig(channels=8, heads=2, taylor_mode="none")).data
    no_gate = gated_attention(
        x, proj, AttentionConfig(channels=8, heads=2, gated=False)).data
    print(f"   removing the value shortcut changes the output by "
          f"{np.abs(base - no_value).max():.3e}")
    print(f"   removing the gate changes the output by "
          f"{np.abs(base - no_gate).max():.3e}")


if __name__ == "__main__":
    main()
