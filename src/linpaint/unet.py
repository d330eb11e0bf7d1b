"""Transformer blocks and the four-level encoder / three-level decoder around them.

Shape law: at level i the feature map has 2^(i-1) * C channels over an
H/2^(i-1) x W/2^(i-1) grid. A 7x7 convolution lifts the 3-channel masked
image to C channels, strided 3x3 convolutions step down between encoder
stages, and the decoder mirrors the path with a 3x3 convolution of the
nearest-neighbour upsampled map, skip concatenation and a 1x1 fusion
convolution that halves the channels again. Every block wraps gated linear
attention and a gated feed-forward unit in residual connections.

The feed-forward unit is one recorded op, like attention: its forward pass
runs over blocks of hidden channels, so no full-width hidden map is ever
built, and its hand-derived backward keeps only the depthwise outputs.

Without a tape no full-resolution map outlives its last use: the up conv runs
at the low resolution and each normalized map and skip map is freed once
used. A tape gives the same values and keeps what the backward pass needs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .attention import AttentionConfig, ProjectionSet, gated_attention
from .autograd import Module, Parameter, _conv_params
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat_channels,
    conv2d,
    depthwise_taps,
    depthwise_taps_back,
    fused_op,
    gauss_cdf,
    gelu_slope,
    layer_norm_sites,
    matmul_add,
    recording,
    tanh,
    upsample_conv2d,
)

__all__ = [
    "IMAGE_CHANNELS",
    "ModelConfig",
    "format_config",
    "parse_config",
    "InpaintingUNet",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]

NORM_KINDS = ("layer", "none")

# The model reads and writes RGB images.
IMAGE_CHANNELS = 3

CHECKPOINT_MAGIC = b"LINPAINT-CKPT-1\n"

# Elements of a feed-forward block's stacked 1x1 map over the padded grid
# (16 MB of float64): the forward pass works on one block of hidden channels
# at a time, so its buffers stay near this size however wide the layer is.
_FFN_BLOCK = 1 << 21


@dataclass
class ModelConfig:
    """Full architecture description; everything the checkpoint must restore."""

    base_channels: int = 32
    block_counts: tuple[int, ...] = (1, 2, 3, 4, 3, 2, 1)
    heads_per_level: tuple[int, ...] = (1, 2, 4, 8, 4, 2, 1)
    taylor_mode: str = "residual"
    gated: bool = True
    norm: str = "layer"
    ffn_expansion: float = 2.0

    def validate(self) -> None:
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {self.base_channels}")
        if len(self.block_counts) != 7 or any(b < 0 for b in self.block_counts):
            raise ValueError(f"block_counts must be 7 non-negative ints, got {self.block_counts}")
        if len(self.heads_per_level) != 7:
            raise ValueError(f"heads_per_level must have 7 entries, got {self.heads_per_level}")
        if self.norm not in NORM_KINDS:
            raise ValueError(f"norm must be one of {NORM_KINDS}, got {self.norm!r}")
        bad_expansion = f"ffn_expansion must be finite and > 0, got {self.ffn_expansion}"
        if not self.ffn_expansion > 0:
            raise ValueError(bad_expansion)
        try:    # level 4's FFN is the widest; round() overflows on an infinite width
            self.ffn_hidden(self.level_channels(3))
        except OverflowError:
            raise ValueError(bad_expansion) from None
        for idx, heads in enumerate(self.heads_per_level):
            try:
                AttentionConfig(self.level_channels(idx), heads, self.taylor_mode).validate()
            except ValueError as exc:
                raise ValueError(f"level {idx}: {exc}") from None

    def level_channels(self, idx: int) -> int:
        """Channels at block-stack index 0..6 (enc 1..4 then dec 3..1)."""
        level = idx + 1 if idx < 4 else 7 - idx
        return self.base_channels * 2 ** (level - 1)

    def ffn_hidden(self, channels: int) -> int:
        """The hidden width of a feed-forward unit on ``channels`` channels."""
        return max(1, round(channels * self.ffn_expansion))


# ---------------------------------------------------------------------------
# Config text: one ``key=value`` line per dataclass field. The type of a
# field's value picks its form: bool as true/false, tuple as comma-separated
# ints, float as repr, anything else as str. Config files and checkpoint
# headers both use it.


def format_config(config) -> list[str]:
    """``key=value`` lines for every field of a config dataclass, in declaration order."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name}={text}")
    return lines


def parse_config(config, pairs: dict[str, str]):
    """A copy of ``config`` with every field whose name is a key of ``pairs``
    parsed from its text; the inverse of :func:`format_config`.

    The field's value in ``config`` gives the type to parse; a field whose
    value is None takes the text as is. Raises ValueError naming the key.
    """
    changes: dict[str, object] = {}
    for f in fields(config):
        if f.name not in pairs:
            continue
        current, text = getattr(config, f.name), pairs[f.name]
        try:
            if isinstance(current, bool):
                if text not in ("true", "false"):
                    raise ValueError("expected true or false")
                changes[f.name] = text == "true"
            elif isinstance(current, tuple):
                changes[f.name] = tuple(int(v) for v in text.split(","))
            elif isinstance(current, (int, float)):
                changes[f.name] = type(current)(text)
            else:
                changes[f.name] = text
        except ValueError as exc:
            raise ValueError(f"bad value for {f.name}: {text!r} ({exc})") from None
    return replace(config, **changes)


class ConvLayer(Module):
    """A convolution with its weights; with ``upsample``, a 3x3 stride-1
    padding-1 conv of x's nearest-neighbour 2x upsampling, run as
    :func:`upsample_conv2d`."""

    def __init__(self, rng, cin: int, cout: int, k: int, stride: int, padding: int,
                 name: str, upsample: bool = False) -> None:
        self.w, self.b = _conv_params(rng, cout, cin, k, name)
        self.stride = stride
        self.padding = padding
        self.upsample = upsample

    def __call__(self, x: Tensor) -> Tensor:
        if self.upsample:
            return upsample_conv2d(x, self.w, self.b)
        return conv2d(x, self.w, self.b, self.stride, self.padding)


class ChannelNorm(Module):
    """Per-site normalization over channels with a learnable channel affine."""

    def __init__(self, rng, channels: int, name: str) -> None:
        self.gamma = Parameter(np.ones(channels), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), name=f"{name}.beta")

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm_sites(x, self.gamma, self.beta)


class FeedForward(Module):
    """Gated linear unit: two 1x1 conv + 3x3 depthwise branches, one GELU-gated,
    then a 1x1 conv back to the input width.

    One recorded op. The forward pass pads x once and runs over blocks of
    hidden channels: the stacked [conv_i; conv_g] rows of a block multiply the
    padded map, so with the bias added and the one-pixel ring zeroed they are
    the depthwise input, already padded; the depthwise conv and the gate
    dg * Phi(dg) * bi follow, and each block's product with its conv_out
    columns is summed into the output. Only the output is checked finite.
    While a tape records, the depthwise outputs (bi, dg) are kept; backward
    recomputes each block's stacked 1x1 map from x, one GEMM, for the
    depthwise weight gradient, and returns the gradients of x and of all ten
    parameters at once.
    """

    # Residual-branch outputs start near zero so a fresh block is close to the
    # identity map; training only has to grow the branches it needs.
    RESIDUAL_OUT_GAIN = 0.125

    def __init__(self, rng, channels: int, hidden: int, name: str) -> None:
        self.conv_i_w, self.conv_i_b = _conv_params(rng, hidden, channels, 1, f"{name}.conv_i")
        self.dw_i_w = Parameter(rng.normal(0.0, math.sqrt(1.0 / 9.0), size=(hidden, 3, 3)),
                                name=f"{name}.dw_i.w")
        self.dw_i_b = Parameter(np.zeros(hidden), name=f"{name}.dw_i.b")
        self.conv_g_w, self.conv_g_b = _conv_params(rng, hidden, channels, 1, f"{name}.conv_g")
        self.dw_g_w = Parameter(rng.normal(0.0, math.sqrt(1.0 / 9.0), size=(hidden, 3, 3)),
                                name=f"{name}.dw_g.w")
        self.dw_g_b = Parameter(np.zeros(hidden), name=f"{name}.dw_g.b")
        self.conv_out_w, self.conv_out_b = _conv_params(
            rng, channels, hidden, 1, f"{name}.conv_out", gain=self.RESIDUAL_OUT_GAIN)

    def __call__(self, x: Tensor) -> Tensor:
        params = self.parameters()
        ci_w, ci_b, di_w, di_b, cg_w, cg_b, dg_w, dg_b, co_w, co_b = (p.data for p in params)
        hidden, c = ci_w.shape[:2]
        if x.data.ndim != 3 or x.shape[0] != c:
            raise ShapeError(f"expected {c}xHxW input, got {x.shape}")
        _, h, w = x.shape
        n, grid = h * w, (h + 2) * (w + 2)
        inputs = (x, *params)
        co_mat = co_w.reshape(c, hidden)
        # Hidden channels per block: the stacked 1x1 map of a block stays
        # within _FFN_BLOCK elements (at least one channel), spread evenly.
        count = -(-hidden // max(1, _FFN_BLOCK // (2 * grid)))
        per_block = -(-hidden // count)
        blocks = [(h0, min(hidden, h0 + per_block)) for h0 in range(0, hidden, per_block)]

        def rows(h0: int, h1: int) -> np.ndarray:
            return np.concatenate([ci_w[h0:h1], cg_w[h0:h1]]).reshape(2 * (h1 - h0), c)

        def depthwise_input(xp: np.ndarray, h0: int, h1: int) -> np.ndarray:
            """The block's stacked 1x1 map over the padded grid with its ring
            zeroed: the depthwise input, already padded."""
            pre = rows(h0, h1) @ xp
            pre += np.concatenate([ci_b[h0:h1], cg_b[h0:h1]])[:, None]
            pre = pre.reshape(-1, h + 2, w + 2)
            pre[:, 0] = pre[:, -1] = pre[:, :, 0] = pre[:, :, -1] = 0.0
            return pre

        def depthwise_params(h0: int, h1: int) -> tuple[np.ndarray, np.ndarray]:
            return (np.concatenate([di_w[h0:h1], dg_w[h0:h1]]),
                    np.concatenate([di_b[h0:h1], dg_b[h0:h1]]))

        xp = _pad_grid(x.data)
        kept: list[np.ndarray] | None = [] if recording(inputs) else None
        out = np.empty((c, n))
        gate = np.empty((per_block, n))
        dw_out = np.empty((2 * per_block, h, w))
        for i, (h0, h1) in enumerate(blocks):
            m = h1 - h0
            if kept is not None:
                dw_out = np.empty((2 * m, h, w))
                kept.append(dw_out)
            depthwise_taps(depthwise_input(xp, h0, h1), *depthwise_params(h0, h1),
                           dw_out[:2 * m])
            bi, dg = dw_out[:m].reshape(m, n), dw_out[m:2 * m].reshape(m, n)
            z = gauss_cdf(dg, out=gate[:m])
            z *= dg
            z *= bi
            if i:
                matmul_add(co_mat[:, h0:h1], z, out)
            else:
                np.matmul(co_mat[:, h0:h1], z, out=out)
        out += co_b[:, None]

        def vjp(g: np.ndarray, needs: tuple[bool, ...]) -> list[np.ndarray | None]:
            g_mat, x_mat = g.reshape(c, n), x.data.reshape(c, n)
            xp = _pad_grid(x.data)
            dx = np.zeros((c, n)) if needs[0] else None
            d_rows, d_pre_b = np.empty((2, hidden, c)), np.empty((2, hidden))
            d_dw_w, d_dw_b = np.empty((2, hidden, 3, 3)), np.empty((2, hidden))
            d_co = np.empty((c, hidden))
            for (h0, h1), dw_out in zip(blocks, kept):
                m = h1 - h0
                bi, dg = dw_out[:m].reshape(m, n), dw_out[m:].reshape(m, n)
                phi = gauss_cdf(dg)
                act = dg * phi
                np.matmul(g_mat, (bi * act).T, out=d_co[:, h0:h1])
                # The gradient of the depthwise output: [d bi; d dg].
                dz = co_mat[:, h0:h1].T @ g_mat
                g_dw = np.empty((2 * m, h, w))
                np.multiply(dz, act, out=g_dw[:m].reshape(m, n))
                dz *= bi
                np.multiply(dz, gelu_slope(dg, phi), out=g_dw[m:].reshape(m, n))
                del phi, act, dz
                d_dw_b[:, h0:h1] = g_dw.reshape(2, m, n).sum(axis=2)
                pre = depthwise_input(xp, h0, h1)
                d_pre, d_w = depthwise_taps_back(g_dw, depthwise_params(h0, h1)[0], pre)
                d_dw_w[:, h0:h1] = d_w.reshape(2, m, 3, 3)
                # The zeroed ring is a constant: only the interior has a gradient.
                d_pre = np.ascontiguousarray(d_pre[:, 1:-1, 1:-1]).reshape(2 * m, n)
                d_pre_b[:, h0:h1] = d_pre.reshape(2, m, n).sum(axis=2)
                d_rows[:, h0:h1] = (d_pre @ x_mat.T).reshape(2, m, c)
                if dx is not None:
                    dx += rows(h0, h1).T @ d_pre
            grads = [None if dx is None else dx.reshape(x.shape)]
            for i in range(2):
                grads += [d_rows[i].reshape(hidden, c, 1, 1), d_pre_b[i], d_dw_w[i], d_dw_b[i]]
            return grads + [d_co.reshape(co_w.shape), g_mat.sum(axis=1)]

        return fused_op(out.reshape(c, h, w), "ffn", inputs, vjp)


def _pad_grid(a: np.ndarray) -> np.ndarray:
    """A C x H x W map with a one-pixel zero ring, as C x (H+2)(W+2) rows."""
    c, h, w = a.shape
    return np.pad(a, ((0, 0), (1, 1), (1, 1))).reshape(c, (h + 2) * (w + 2))


class TransformerBlock(Module):
    """Pre-normalized gated attention and feed-forward, each behind a residual."""

    def __init__(self, rng, channels: int, heads: int, cfg: ModelConfig,
                 name: str) -> None:
        self.attn_cfg = AttentionConfig(
            channels=channels, heads=heads, taylor_mode=cfg.taylor_mode,
            gated=cfg.gated)
        self.attn_cfg.validate()
        self.use_norm = cfg.norm == "layer"
        if self.use_norm:
            self.norm1 = ChannelNorm(rng, channels, f"{name}.norm1")
        self.proj = ProjectionSet.init(channels, rng, prefix=f"{name}.attn",
                                       out_gain=FeedForward.RESIDUAL_OUT_GAIN,
                                       gated=cfg.gated)
        if self.use_norm:
            self.norm2 = ChannelNorm(rng, channels, f"{name}.norm2")
        self.ffn = FeedForward(rng, channels, cfg.ffn_hidden(channels), f"{name}.ffn")

    def __call__(self, x: Tensor) -> Tensor:
        # A normalized map is freed once its branch returns, unless a tape keeps it.
        y = add(x, gated_attention(self.norm1(x) if self.use_norm else x,
                                   self.proj, self.attn_cfg))
        return add(y, self.ffn(self.norm2(y) if self.use_norm else y))


class InpaintingUNet(Module):
    """The full encoder-decoder; operates on one 3xHxW image at a time.

    Layers are built in forward order, which is also the checkpoint order:
    ``encoder`` holds one ``(blocks, down)`` per level 1..4 (no ``down`` at
    level 4), ``decoder`` one ``(up, fuse, blocks)`` per level 3..1.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        c = config.base_channels

        def blocks(idx: int, ch: int, name: str) -> list[TransformerBlock]:
            return [TransformerBlock(rng, ch, config.heads_per_level[idx], config,
                                     f"{name}.block{b}")
                    for b in range(config.block_counts[idx])]

        self.head = ConvLayer(rng, IMAGE_CHANNELS, c, 7, 1, 3, "head")
        self.encoder: list[tuple[list[TransformerBlock], ConvLayer | None]] = []
        for level in range(1, 5):
            ch = c * 2 ** (level - 1)
            stage = blocks(level - 1, ch, f"enc{level}")
            down = ConvLayer(rng, ch, 2 * ch, 3, 2, 1, f"down{level}") if level < 4 else None
            self.encoder.append((stage, down))

        self.decoder: list[tuple[ConvLayer, ConvLayer, list[TransformerBlock]]] = []
        for idx, level in enumerate((3, 2, 1)):
            ch = c * 2 ** (level - 1)
            up = ConvLayer(rng, 2 * ch, ch, 3, 1, 1, f"dec{level}.up", upsample=True)
            fuse = ConvLayer(rng, 2 * ch, ch, 1, 1, 0, f"dec{level}.fuse")
            self.decoder.append((up, fuse, blocks(4 + idx, ch, f"dec{level}")))

        self.tail = ConvLayer(rng, c, IMAGE_CHANNELS, 7, 1, 3, "tail")

    def _check_input(self, im: Tensor) -> None:
        if im.data.ndim != 3 or im.shape[0] != IMAGE_CHANNELS:
            raise ShapeError(f"expected {IMAGE_CHANNELS}xHxW input, got {im.shape}")
        _, h, w = im.shape
        if h % 8 != 0 or w % 8 != 0:
            raise ShapeError(f"spatial dims must be divisible by 8, got {h}x{w}")

    def encoder_forward(self, im: Tensor) -> list[Tensor]:
        """The outputs of encoder levels 1..4, in that order."""
        self._check_input(im)
        x = self.head(im)
        encs = []
        for stage, down in self.encoder:
            for block in stage:
                x = block(x)
            encs.append(x)
            if down is not None:
                x = down(x)
        return encs

    def decoder_forward(self, encs: list[Tensor]) -> Tensor:
        """The prediction from :meth:`encoder_forward`'s list, which this
        consumes: each map is popped when it is used, so without a tape a skip
        map is freed once concatenated."""
        x = encs.pop()
        for up, fuse, stage in self.decoder:
            x = up(x)
            x = concat_channels(x, encs.pop())
            x = fuse(x)
            for block in stage:
                x = block(x)
        return tanh(self.tail(x))

    def forward(self, im: Tensor) -> Tensor:
        """The network's prediction in [-1, 1] for every pixel.

        ``im`` must already have its missing pixels zero-filled (network
        scale, [-1, 1]). The known pixels are not pasted back here: training
        scores the raw prediction, and the CLI pastes them back only when it
        writes an image.
        """
        return self.decoder_forward(self.encoder_forward(im))


# ---------------------------------------------------------------------------
# Checkpoint format: magic line, text header, raw little-endian float64 block
# in registration order, trailing CRC32 of everything before it.


class CheckpointError(ValueError):
    """Malformed, truncated or corrupted checkpoint file."""


# Header keys that older checkpoints carry, with the one value the model now
# always has; any other value describes a different model.
_RETIRED_KEYS = {"in_channels": "3", "out_channels": "3", "normalize_qk": "true",
                 "divide": "true", "attn_eps": "1e-06"}


def save_checkpoint(model: InpaintingUNet, path: str) -> None:
    params = model.parameters()
    header = format_config(model.config)
    header.append(f"param_count={sum(p.size for p in params)}")
    blob = CHECKPOINT_MAGIC + ("\n".join(header) + "\nend-header\n").encode("ascii")
    blob += b"".join(p.data.astype("<f8").tobytes() for p in params)
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(crc.to_bytes(4, "little"))


def _read_header(text: bytes, data_bytes: int) -> ModelConfig:
    """The config a checkpoint header declares, once its parameter count
    matches the data block; nothing of the model's size is allocated here.
    Raises ValueError for any fault.
    """
    pairs = {key: val for key, _, val in
             (line.partition("=") for line in text.decode("ascii").splitlines())}
    for key in [f.name for f in fields(ModelConfig)] + ["param_count"]:
        if key not in pairs:
            raise ValueError(f"missing key {key!r}")
    for key, kept in _RETIRED_KEYS.items():
        if pairs.get(key, kept) != kept:
            raise ValueError(f"{key}={pairs[key]} is no longer supported, only {key}={kept}")
    config = parse_config(ModelConfig(), pairs)
    config.validate()
    declared = int(pairs["param_count"])
    if declared * 8 != data_bytes:
        raise ValueError(f"declares {declared} parameters, data block is {data_bytes} bytes")
    # Every block holds parameters, so this bounds the accounting walk below
    # by the file size.
    if sum(config.block_counts) > declared:
        raise ValueError(f"declares {sum(config.block_counts)} blocks, "
                         f"but only {declared} parameters")
    from .cost import analytic_param_count  # cost imports this module
    implied = analytic_param_count(config)
    if implied != declared:
        raise ValueError(f"declares {declared} parameters, config implies {implied}")
    return config


class _NoDraws:
    """Stands in for the generator when every weight is about to be overwritten:
    ``normal`` returns uninitialised storage instead of drawing."""

    @staticmethod
    def normal(loc: float, scale: float, size: tuple[int, ...]) -> np.ndarray:
        return np.empty(size)


def load_checkpoint(path: str) -> InpaintingUNet:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 4:
        raise CheckpointError(f"checkpoint too short: {len(raw)} bytes")
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("bad checkpoint magic")
    view = memoryview(raw)
    if zlib.crc32(view[:-4]) & 0xFFFFFFFF != int.from_bytes(raw[-4:], "little"):
        raise CheckpointError("checkpoint checksum mismatch")

    end = raw.find(b"end-header\n", len(CHECKPOINT_MAGIC), len(raw) - 4)
    if end < 0:
        raise CheckpointError("checkpoint header not terminated")
    data = view[end + len(b"end-header\n"):-4]
    try:
        config = _read_header(raw[len(CHECKPOINT_MAGIC):end], len(data))
    except ValueError as exc:
        raise CheckpointError(f"bad checkpoint header: {exc}") from None

    model = InpaintingUNet(config, _NoDraws())
    offset = 0
    for p in model.parameters():
        n = p.size * 8
        p.data[...] = np.frombuffer(data[offset:offset + n], dtype="<f8").reshape(p.shape)
        offset += n
    return model
