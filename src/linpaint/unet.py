"""Transformer blocks and the four-level encoder / three-level decoder around them.

Shape law: at level i the feature map has 2^(i-1) * C channels over an
H/2^(i-1) x W/2^(i-1) grid. A 7x7 convolution lifts the 3-channel masked
image to C channels, strided 3x3 convolutions step down between encoder
stages, and the decoder mirrors the path with a 3x3 convolution of the
nearest-neighbour upsampled map and a 1x1 fusion convolution of it stacked
with the skip map, which halves the channels again. Every block wraps gated
linear attention and a gated feed-forward unit in residual connections.

The feed-forward unit is one recorded op, like attention, and gates with the
attention gate's band kernel (``geglu_band``): it runs over bands of whole
rows with all hidden channels, so it holds its output and band-sized scratch,
taped or not, and its backward recomputes each band from x into band buffers.

Without a tape no full-resolution map outlives its last use: the up conv runs
at the low resolution, the skip fusion passes the upsampled map and the skip
map to one conv as channel parts, so the stacked map is never built, and
each normalized map and skip map is freed once used. A tape gives the same
values and keeps what the backward pass needs.
"""

from __future__ import annotations

import math
import os
import sys
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .attention import AttentionConfig, ProjectionSet, gated_attention
from .autograd import Module, Parameter, _conv_params
from .tensor import (
    ShapeError,
    Tensor,
    add,
    conv2d,
    depthwise_taps,
    depthwise_taps_back,
    fused_op,
    geglu_band,
    geglu_band_back,
    layer_norm_sites,
    row_bands,
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
# The magic and header are found within this many leading bytes (a header is
# about 200), so a file that is not a checkpoint costs only this much to refuse.
_HEADER_LIMIT = 4096

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
    :func:`upsample_conv2d`. ``x`` may be a sequence of maps, whose channel
    stack :func:`conv2d` convolves without building it."""

    def __init__(self, rng, cin: int, cout: int, k: int, stride: int, padding: int,
                 name: str, upsample: bool = False) -> None:
        self.w, self.b = _conv_params(rng, cout, cin, k, name)
        self.stride = stride
        self.padding = padding
        self.upsample = upsample

    def __call__(self, x: Tensor | tuple[Tensor, ...]) -> Tensor:
        if self.upsample:
            return upsample_conv2d(x, self.w, self.b)
        return conv2d(x, self.w, self.b, self.stride, self.padding)


class ChannelNorm(Module):
    """Per-site normalization over channels with a learnable channel affine."""

    def __init__(self, channels: int, name: str) -> None:
        self.gamma = Parameter(np.ones(channels), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), name=f"{name}.beta")

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm_sites(x, self.gamma, self.beta)


class FeedForward(Module):
    """Gated linear unit: two 1x1 conv + 3x3 depthwise branches, one GELU-gated,
    then a 1x1 conv back to the input width.

    One recorded op, run over bands of whole rows (``row_bands``), each with
    all hidden channels. A band copies x's rows [r0 - 1, r1 + 1) into a
    zero-ringed buffer and multiplies it by the stacked [conv_i; conv_g]
    rows; with the bias added and the ring zeroed that is the band's
    depthwise input, already padded. The depthwise conv and then
    conv_out(bi * GELU(dg)) (``geglu_band``, as in the attention gate) write
    the band's output columns. The band buffers are reused, so the op holds
    its output and scratch the size of one band, taped or not. Only the
    output is checked finite. The backward recomputes each band's stacked
    map from x and its depthwise outputs (bi, dg) from that, bit for bit,
    writes the band's gradients into reused band buffers, adds those of its
    halo rows into dx, sums the weight gradients over bands, and returns
    the gradients of x and of all ten parameters at once.
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
        inputs, xd = (x, *params), x.data
        two = 2 * hidden
        pre_w = np.concatenate([ci_w, cg_w]).reshape(two, c)
        pre_b = np.concatenate([ci_b, cg_b])[:, None]
        dw_w, dw_b = np.concatenate([di_w, dg_w]), np.concatenate([di_b, dg_b])
        co_mat = co_w.reshape(c, hidden)
        bands = row_bands(h, w + 2)
        rows = bands[0][1]
        band = two * (rows + 2) * (w + 2)

        def scratch(dw_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """A zero-ringed band of x and room for one band's stacked map and
            for its depthwise outputs (and, in the backward, the map's gradient)."""
            return np.zeros((c, rows + 2, w + 2)), np.empty(band), np.empty(dw_size)

        def depthwise(r0: int, r1: int, x_band: np.ndarray, pre_buf: np.ndarray,
                      dw_buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """The band's depthwise input, padded: the stacked 1x1 map of x's
            rows [r0 - 1, r1 + 1) with its ring (and any row outside x) zeroed;
            and the depthwise outputs bi, dg (hidden x band) it gives."""
            lo, hi = max(r0 - 1, 0), min(r1 + 1, h)
            xb = x_band[:, :r1 - r0 + 2]
            xb[:, lo - r0 + 1:hi - r0 + 1, 1:-1] = xd[:, lo:hi]
            pre = pre_buf[:two * xb[0].size].reshape(two, -1)
            np.matmul(pre_w, xb.reshape(c, -1), out=pre)
            pre += pre_b
            pre = pre.reshape(two, -1, w + 2)
            pre[:, :, 0] = pre[:, :, -1] = 0.0
            if r0 == 0:
                pre[:, 0] = 0.0
            if r1 == h:
                pre[:, -1] = 0.0
            dw_out = dw_buf[:two * (r1 - r0) * w].reshape(two, r1 - r0, w)
            depthwise_taps(pre, dw_w, dw_b, dw_out)
            return pre, *dw_out.reshape(2, hidden, -1)

        bufs = scratch(two * rows * w)
        out = np.empty((c, h * w))
        for r0, r1 in bands:
            m = (r1 - r0) * w
            _, bi, dg = depthwise(r0, r1, *bufs)
            # The stacked map is used up: Phi(dg) goes in its buffer.
            geglu_band(co_mat, bi, dg, bufs[1][:hidden * m].reshape(hidden, m),
                       out[:, r0 * w:r1 * w])
        out += co_b[:, None]

        def vjp(g: np.ndarray, needs: tuple[bool, ...]) -> list[np.ndarray | None]:
            g_mat = g.reshape(c, h * w)
            bufs, g_buf = scratch(band), np.empty(band)
            dx = np.zeros((c, h, w)) if needs[0] else None
            d_pre_w, d_pre_b = np.zeros((two, c)), np.zeros(two)
            d_dw_w, d_dw_b = np.zeros((two, 3, 3)), np.zeros(two)
            d_co = np.zeros((c, hidden))
            for r0, r1 in bands:
                m = (r1 - r0) * w
                pre, bi, dg = depthwise(r0, r1, *bufs)
                # The gradient of the depthwise output, [d bi; d dg], then of
                # its input on x's rows, in g_buf; its padded input's in bufs[2].
                g_dw = g_buf[:two * m].reshape(two, r1 - r0, w)
                gi, gg = g_dw.reshape(2, hidden, m)
                geglu_band_back(co_mat, g_mat[:, r0 * w:r1 * w], bi, dg, gi, gg, gi, gg, d_co)
                d_dw_b += g_dw.reshape(two, m).sum(axis=1)
                d_pad, d_w = depthwise_taps_back(g_dw, dw_w, pre,
                                                 bufs[2][:pre.size].reshape(pre.shape))
                d_dw_w += d_w
                # The zeroed ring is a constant: only x's rows and columns
                # have a gradient, the halo rows included.
                lo, hi = max(r0 - 1, 0), min(r1 + 1, h)
                d_pre = g_buf[:two * (hi - lo) * w].reshape(two, -1)
                d_pre.reshape(two, hi - lo, w)[...] = d_pad[:, lo - r0 + 1:hi - r0 + 1, 1:-1]
                d_pre_b += d_pre.sum(axis=1)
                d_pre_w += d_pre @ xd[:, lo:hi].reshape(c, -1).T
                if dx is not None:
                    dx[:, lo:hi] += (pre_w.T @ d_pre).reshape(c, hi - lo, w)
            d_pre_w, d_pre_b = d_pre_w.reshape(2, hidden, c), d_pre_b.reshape(2, hidden)
            d_dw_w, d_dw_b = d_dw_w.reshape(2, hidden, 3, 3), d_dw_b.reshape(2, hidden)
            grads = [dx]
            for i in range(2):
                grads += [d_pre_w[i].reshape(hidden, c, 1, 1), d_pre_b[i], d_dw_w[i], d_dw_b[i]]
            return grads + [d_co.reshape(co_w.shape), g_mat.sum(axis=1)]

        return fused_op(out.reshape(c, h, w), "ffn", inputs, vjp)


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
            self.norm1 = ChannelNorm(channels, f"{name}.norm1")
        self.proj = ProjectionSet.init(channels, rng, prefix=f"{name}.attn",
                                       out_gain=FeedForward.RESIDUAL_OUT_GAIN,
                                       gated=cfg.gated)
        if self.use_norm:
            self.norm2 = ChannelNorm(channels, f"{name}.norm2")
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
        map is freed once fused."""
        x = encs.pop()
        for up, fuse, stage in self.decoder:
            x = fuse((up(x), encs.pop()))
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
    Every line is one key=value pair and no key repeats; keys it does not
    know are ignored. Raises ValueError for any fault.
    """
    pairs = {}
    for line in text.decode("ascii").splitlines():
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"line without '=': {line!r}")
        if key in pairs:
            raise ValueError(f"repeated key {key!r}")
        pairs[key] = val
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
    """The model a checkpoint holds. The magic and header are checked from a
    bounded prefix before anything of the model's size is allocated; each
    parameter's array is then read straight from the data block, and the
    CRC of the whole file is checked last."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(CHECKPOINT_MAGIC) + 4:
            raise CheckpointError(f"checkpoint too short: {size} bytes")
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError("bad checkpoint magic")
        head = CHECKPOINT_MAGIC + fh.read(min(_HEADER_LIMIT, size - 4) - len(CHECKPOINT_MAGIC))
        end = head.find(b"end-header\n", len(CHECKPOINT_MAGIC))
        if end < 0:
            raise CheckpointError(f"checkpoint header not terminated "
                                  f"within {_HEADER_LIMIT} bytes")
        start = end + len(b"end-header\n")
        try:
            config = _read_header(head[len(CHECKPOINT_MAGIC):end], size - 4 - start)
        except ValueError as exc:
            raise CheckpointError(f"bad checkpoint header: {exc}") from None

        model = InpaintingUNet(config, _NoDraws())
        crc = zlib.crc32(head[:start])
        fh.seek(start)
        for p in model.parameters():
            raw = memoryview(p.data).cast("B")
            if fh.readinto(raw) != len(raw):
                raise CheckpointError("checkpoint truncated while reading")
            crc = zlib.crc32(raw, crc)
            if sys.byteorder != "little":
                p.data.byteswap(inplace=True)
        stored = fh.read(4)
    if crc & 0xFFFFFFFF != int.from_bytes(stored, "little"):
        raise CheckpointError("checkpoint checksum mismatch")
    return model
