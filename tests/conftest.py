import math
import re
import zlib

import numpy as np
import pytest

import linpaint.tensor as T
from linpaint.autograd import Parameter
from linpaint.tensor import make_rng


def reference_taylor(q, k, v, mode, eps=1e-6, normalize_qk=True):
    """Independent O(N^2 C) oracle: materialize the pairwise weights outright."""
    def unit_rows(a):
        out = np.zeros_like(a)
        for i in range(a.shape[0]):
            nrm = math.sqrt(float((a[i] * a[i]).sum()))
            if nrm >= 1e-12:
                out[i] = a[i] / nrm
        return out

    qb = unit_rows(q) if normalize_qk else q
    kb = unit_rows(k) if normalize_qk else k
    n = q.shape[0]
    sim = qb @ kb.T                                   # N x N
    if mode == "sum":
        numer = (1.0 + sim) @ v
    elif mode == "residual":
        numer = v + sim @ v
    else:
        numer = sim @ v
    denom = n + sim.sum(axis=1, keepdims=True)
    small = np.abs(denom) < eps
    denom = np.where(small, np.where(denom >= 0, eps, -eps), denom)
    return numer / denom


def reference_softmax(q, k, v):
    """Scalar-loop evaluation of exact, unscaled softmax attention."""
    n = q.shape[0]
    out = np.zeros_like(v)
    for i in range(n):
        logits = np.array([float(q[i] @ k[j]) for j in range(n)])
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for j in range(n):
            out[i] += w[j] * v[j]
    return out


def synth_image(h: int, w: int, seed: int = 0) -> np.ndarray:
    """Smooth structured RGB test image in [0,1]: gradients, waves and a disc."""
    rng = make_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    phases = rng.uniform(0, 2 * np.pi, size=3)
    freqs = rng.uniform(2.0, 5.0, size=3)
    img = np.stack([
        0.5 + 0.35 * np.sin(freqs[0] * np.pi * xx + phases[0]) * np.cos(2 * np.pi * yy),
        0.4 + 0.4 * xx * yy + 0.15 * np.sin(freqs[1] * np.pi * (xx + yy) + phases[1]),
        0.5 + 0.3 * np.cos(freqs[2] * np.pi * yy + phases[2]) * xx,
    ])
    cy, cx, r = 0.35, 0.6, 0.2
    disc = ((yy - cy) ** 2 + (xx - cx) ** 2) < r * r
    img[0][disc] = 0.85
    img[2][disc] = 0.25
    return np.clip(img, 0.0, 1.0)


def synth_mask(h: int, w: int, missing_ratio: float, seed: int = 0) -> np.ndarray:
    """Binary 1xHxW mask (1 = valid) with exactly round(ratio*H*W) missing pixels."""
    rng = make_rng(seed)
    n_missing = int(round(missing_ratio * h * w))
    idx = rng.choice(h * w, size=n_missing, replace=False)
    mask = np.ones(h * w)
    mask[idx] = 0.0
    return mask.reshape(1, h, w)


def forge_checkpoint(path: str, pattern: bytes, replacement: bytes) -> None:
    """Rewrite the header of a checkpoint file by regex and recompute its CRC,
    so that only the header fault is left for the loader to find."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.index(b"end-header\n")
    header, count = re.subn(pattern, replacement, raw[:end])
    assert count == 1, f"{pattern!r} matched {count} times"
    body = header + raw[end:-4]
    with open(path, "wb") as fh:
        fh.write(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))


def decode_with_up_shapes(model, encs):
    """``model.decoder_forward(encs)`` and the shape of each decoder level's up
    conv output (D3, D2, D1, in that order)."""
    shapes = []

    def watched(up):
        def call(x):
            y = up(x)
            shapes.append(y.shape)
            return y
        return call

    levels = model.decoder
    model.decoder = [(watched(up), fuse, stage) for up, fuse, stage in levels]
    try:
        out = model.decoder_forward(encs)
    finally:
        model.decoder = levels
    return out, shapes


@pytest.fixture
def created_parameters(monkeypatch):
    """Every Parameter constructed while the test runs, in creation order."""
    created = []
    init = Parameter.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(Parameter, "__init__", recording_init)
    return created


def force_bands(monkeypatch, rows, row_size, per_band):
    """Cap the banded ops' bands at ``per_band`` rows of ``row_size``
    elements, checking that ``rows`` rows then split into at least three bands
    with a shorter last one; returns the bands."""
    monkeypatch.setattr(T, "_BAND", per_band * row_size)
    bands = T.row_bands(rows, row_size)
    assert len(bands) >= 3 and bands[-1][1] - bands[-1][0] < bands[0][1] - bands[0][0]
    return bands
