import os
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import decode_with_up_shapes, forge_checkpoint
from reference_ops import depthwise_conv2d, gelu_gate

import linpaint.tensor as T
from linpaint.cli import paste_known_pixels
from linpaint.autograd import Parameter, Tape, finite_diff_check, zero_grads
from linpaint.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    conv2d,
    hadamard,
    make_rng,
    sum_all,
)
from linpaint.unet import (
    CheckpointError,
    FeedForward,
    InpaintingUNet,
    ModelConfig,
    TransformerBlock,
    load_checkpoint,
    save_checkpoint,
)


def tiny_config(**overrides):
    base = dict(base_channels=4, block_counts=(1,) * 7, heads_per_level=(1,) * 7)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# FFN


def test_ffn_zero_weights_gives_zero():
    ffn = FeedForward(make_rng(0), 4, 8, "ffn")
    for p in ffn.parameters():
        p.data[:] = 0.0
    out = ffn(Tensor(make_rng(1).normal(size=(4, 6, 6))))
    assert np.max(np.abs(out.data)) == 0.0


def test_ffn_preserves_shape():
    ffn = FeedForward(make_rng(2), 16, 32, "ffn")
    assert ffn(Tensor(np.zeros((16, 32, 32)))).shape == (16, 32, 32)


def test_ffn_hidden_width():
    assert ModelConfig(ffn_expansion=2.0).ffn_hidden(10) == 20
    assert ModelConfig(ffn_expansion=0.1).ffn_hidden(3) == 1


def test_ffn_nan_gate_weight_raises_nonfinite():
    ffn = FeedForward(make_rng(4), 4, 8, "ffn")
    ffn.dw_g_w.data[3, 1, 1] = np.nan
    x = Tensor(make_rng(5).normal(size=(4, 6, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="ffn produced non-finite values"):
            ffn(x)


def test_ffn_gradient():
    rng = make_rng(3)
    ffn = FeedForward(rng, 4, 8, "ffn")
    x = Tensor(rng.normal(size=(4, 8, 8)))
    r = Tensor(rng.normal(size=(4, 8, 8)))
    err = finite_diff_check(lambda: sum_all(hadamard(ffn(x), r)), ffn.parameters())
    assert err < 1e-4


def composed_ffn(ffn, x):
    """The feed-forward unit as separate recorded ops: the fused op's reference."""
    branch_i = depthwise_conv2d(conv2d(x, ffn.conv_i_w, ffn.conv_i_b),
                                ffn.dw_i_w, ffn.dw_i_b, padding=1)
    branch_g = depthwise_conv2d(conv2d(x, ffn.conv_g_w, ffn.conv_g_b),
                                ffn.dw_g_w, ffn.dw_g_b, padding=1)
    return conv2d(gelu_gate(branch_i, branch_g), ffn.conv_out_w, ffn.conv_out_b)


def _ffn_case(channels, expansion, h, w, seed=0):
    rng = make_rng(seed)
    hidden = ModelConfig(ffn_expansion=expansion).ffn_hidden(channels)
    ffn = FeedForward(rng, channels, hidden, "ffn")
    # Nonzero biases and a full-scale output, so every gradient term shows.
    for p in ffn.parameters():
        p.data[...] = rng.normal(size=p.shape) * 0.5
    x = Parameter(rng.normal(size=(channels, h, w)))
    r = Tensor(rng.normal(size=(channels, h, w)))
    return ffn, x, r


def _ffn_run(f, ffn, x, r):
    """f's output and the gradients of x and of the ten parameters."""
    with Tape() as tape:
        out = f(x)
        tape.backward(sum_all(hadamard(out, r)))
    grads = [x.grad] + [p.grad for p in ffn.parameters()]
    zero_grads([x, *ffn.parameters()])
    return out.data, grads


def _force_band_rows(monkeypatch, ffn, w, rows):
    """Cap the FFN's bands at ``rows`` rows of a W-wide map."""
    monkeypatch.setattr(T, "_BAND", rows * (w + 2))


# (channels, expansion, H, W, rows per band or None for the default rule)
FFN_CASES = [
    (3, 0.1, 6, 6, None),      # hidden width 1
    (4, 2.0, 5, 7, None),      # a non-square odd map
    (4, 2.0, 1, 1, None),      # a 1x1 map
    (4, 1.75, 6, 6, 2),        # hidden 7 over three bands of 2 rows
    (4, 1.75, 7, 6, 3),        # bands of 3, 3 and 1 rows: a ragged last band
    (4, 2.0, 5, 7, 1),         # one-row bands: each halo row is a neighbour's row
    (4, 2.0, 30, 254, None),   # 24 and 6 rows by the default rule
    (256, 2.0, 32, 32, None),  # the level-4 shape of the C=32 model at 256x256
]


@pytest.mark.parametrize("channels,expansion,h,w,band_rows", FFN_CASES)
def test_fused_ffn_matches_composed_ops(monkeypatch, channels, expansion, h, w, band_rows):
    ffn, x, r = _ffn_case(channels, expansion, h, w)
    if band_rows is not None:
        _force_band_rows(monkeypatch, ffn, w, band_rows)
    out, grads = _ffn_run(ffn, ffn, x, r)
    want_out, want_grads = _ffn_run(lambda t: composed_ffn(ffn, t), ffn, x, r)
    assert np.max(np.abs(out - want_out)) <= 1e-12 * max(1.0, np.max(np.abs(want_out)))
    assert len(grads) == 11
    for got, want in zip(grads, want_grads):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_ffn_gradient_across_ragged_bands(monkeypatch):
    rng = make_rng(23)
    ffn = FeedForward(rng, 3, 5, "ffn")
    _force_band_rows(monkeypatch, ffn, 5, 3)
    assert T.row_bands(7, 7) == [(0, 3), (3, 6), (6, 7)]
    x = Parameter(rng.normal(size=(3, 7, 5)))
    r = Tensor(rng.normal(size=(3, 7, 5)))
    err = finite_diff_check(lambda: sum_all(hadamard(ffn(x), r)), [x, *ffn.parameters()])
    assert err < 1e-4


def test_fused_ffn_records_one_tape_step():
    ffn, x, _ = _ffn_case(4, 2.0, 5, 5)
    with Tape() as tape:
        ffn(x)
    assert len(tape) == 1


def test_fused_ffn_frozen_parameters_get_no_gradient():
    ffn, x, r = _ffn_case(4, 2.0, 5, 7)
    _, unfrozen = _ffn_run(ffn, ffn, x, r)
    for p in ffn.parameters():
        p.requires_grad = False
    _, frozen = _ffn_run(ffn, ffn, x, r)
    assert all(g is None for g in frozen[1:])
    assert np.array_equal(frozen[0], unfrozen[0])


def test_fused_ffn_output_is_the_same_with_and_without_a_tape(monkeypatch):
    # Bands of 3, 3 and 1 rows, which reuse the band buffers with or without
    # a tape; the tape only adds one step.
    ffn, x, _ = _ffn_case(4, 1.75, 7, 6)
    _force_band_rows(monkeypatch, ffn, 6, 3)
    plain = ffn(x).data
    with Tape() as tape:
        taped = ffn(x).data
    assert len(tape) == 1
    assert np.array_equal(plain, taped)


def test_taped_fused_ffn_holds_its_output_and_weight_copies():
    # The taped op holds, above its inputs, its output (1.0 C x N maps) and
    # the stacked copies of its weights: 1.05 maps in all at C=32, hidden 64,
    # 64 x 64 (5.05 when each band's depthwise outputs were kept). The
    # backward runs each band's depthwise conv again.
    rng = make_rng(24)
    ffn = FeedForward(rng, 32, 64, "ffn")
    x = Parameter(rng.normal(size=(32, 64, 64)))
    param_bytes = sum(p.data.nbytes for p in ffn.parameters())
    tracemalloc.start()
    try:
        with Tape():
            base = tracemalloc.get_traced_memory()[0]
            out = ffn(x)
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= out.data.nbytes + 2 * param_bytes


def _ffn_backward_peak(channels, hidden, side):
    """The tracemalloc peak of a taped feed-forward backward above what the
    forward left, in C x N maps."""
    rng = make_rng(25)
    ffn = FeedForward(rng, channels, hidden, "ffn")
    x = Parameter(rng.normal(size=(channels, side, side)))
    r = Tensor(rng.normal(size=(channels, side, side)))
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = sum_all(hadamard(ffn(x), r))
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / x.data.nbytes


def test_taped_ffn_backward_peak_in_one_band():
    # C=32, hidden 64, 64 x 64 is one band. The gate's and the depthwise
    # input's gradients go into reused band buffers: 16.98 maps (the stacked
    # depthwise maps are 4 C wide), 23.64 when each band allocated its gate
    # arrays and both depthwise gradients afresh.
    assert _ffn_backward_peak(32, 64, 64) <= 18.0


def test_taped_ffn_backward_peak_across_bands(monkeypatch):
    # C=16, hidden 32, 64 x 64 in four bands of 16 rows: 8.07 maps, 10.02
    # with fresh arrays per band.
    _force_band_rows(monkeypatch, None, 64, 16)
    assert _ffn_backward_peak(16, 32, 64) <= 8.6


# ---------------------------------------------------------------------------
# transformer block


def test_block_zero_weights_is_identity():
    cfg = tiny_config()
    block = TransformerBlock(make_rng(4), 4, 1, cfg, "blk")
    for p in block.parameters():
        p.data[:] = 0.0
    x = Tensor(make_rng(5).normal(size=(4, 8, 8)))
    assert np.array_equal(block(x).data, x.data)


def test_block_preserves_shape():
    cfg = tiny_config(base_channels=8)
    block = TransformerBlock(make_rng(6), 8, 2, cfg, "blk")
    assert block(Tensor(np.zeros((8, 16, 16)))).shape == (8, 16, 16)


def test_block_gradient():
    rng = make_rng(7)
    block = TransformerBlock(rng, 4, 1, tiny_config(), "blk")
    x = Tensor(rng.normal(size=(4, 8, 8)) * 0.5)
    r = Tensor(rng.normal(size=(4, 8, 8)))
    err = finite_diff_check(lambda: sum_all(hadamard(block(x), r)),
                            block.parameters(), coords_per_param=6)
    assert err < 1e-3


# ---------------------------------------------------------------------------
# encoder / decoder shapes


def test_encoder_shape_law_64():
    model = InpaintingUNet(tiny_config(base_channels=8), make_rng(8))
    encs = model.encoder_forward(Tensor(np.zeros((3, 64, 64))))
    assert [e.shape for e in encs] == [(8, 64, 64), (16, 32, 32), (32, 16, 16), (64, 8, 8)]


def test_encoder_bottom_level_shape_rule():
    # E4 must be 8C x H/8 x W/8 for any lawful size.
    model = InpaintingUNet(tiny_config(base_channels=2), make_rng(9))
    encs = model.encoder_forward(Tensor(np.zeros((3, 40, 24))))
    assert encs[3].shape == (16, 5, 3)


def test_decoder_fusion_channels():
    model = InpaintingUNet(tiny_config(base_channels=4), make_rng(10))
    encs = model.encoder_forward(Tensor(np.zeros((3, 32, 32))))
    out, (d3, d2, d1) = decode_with_up_shapes(model, encs)
    assert d3 == (16, 8, 8)      # 4C at H/4 before fusion
    assert d2 == (8, 16, 16)
    assert d1 == (4, 32, 32)
    assert out.shape == (3, 32, 32)


def test_forward_roundtrip_and_determinism():
    rng = make_rng(11)
    model = InpaintingUNet(tiny_config(), make_rng(12))
    im = Tensor(rng.normal(size=(3, 16, 16)) * 0.2)
    out1 = model.forward(im)
    out2 = model.forward(im)
    assert out1.shape == (3, 16, 16)
    assert np.array_equal(out1.data, out2.data)
    assert np.all(np.abs(out1.data) <= 1.0)  # tanh output range


def test_forward_is_the_same_with_and_without_a_tape(monkeypatch):
    # The fused ops run the same code with or without a tape, except that
    # without one the gate is written over the attention output; the decoder
    # drops each skip map once it is fused unless a backward reads it. Bands
    # of 64 elements per channel put every level's banded ops over several
    # bands.
    monkeypatch.setattr(T, "_BAND", 64)
    model = InpaintingUNet(tiny_config(), make_rng(18))
    im = Tensor(make_rng(19).normal(size=(3, 16, 24)) * 0.3)
    plain = model.forward(im).data
    with Tape():
        taped = model.forward(im).data
    assert np.array_equal(plain, taped)


def test_forward_working_set_is_bounded_by_level1_maps():
    # The traced peak of a tape-free full-depth forward, in level-1 maps
    # (8 x 128 x 128 float64, 1 MB), is 9.0: three maps the level-1 block
    # holds, the feed-forward output and band scratch. Level 1 spans several
    # bands of each banded op. Before the ops ran in bands it was 16.0, set by
    # the feed-forward unit's hidden-channel block over the whole map.
    assert len(T.row_bands(128, 130)) >= 2 and len(T.row_bands(128 * 128, 1)) >= 2
    model = InpaintingUNet(ModelConfig(base_channels=8), make_rng(20))
    im = Tensor(make_rng(21).uniform(-1, 1, size=(3, 128, 128)))
    model.forward(im)
    tracemalloc.start()
    try:
        model.forward(im)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.0 * 8 * 128 * 128 * 8


def test_forward_rejects_indivisible_dims():
    model = InpaintingUNet(tiny_config(), make_rng(13))
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((3, 20, 16))))


def test_shape_law_random_configs():
    rng = make_rng(14)
    for _ in range(6):
        c = int(rng.integers(1, 5))
        h = 8 * int(rng.integers(1, 4))
        w = 8 * int(rng.integers(1, 4))
        blocks = tuple(int(b) for b in rng.integers(0, 3, size=7))
        model = InpaintingUNet(tiny_config(base_channels=c, block_counts=blocks),
                               make_rng(15))
        encs = model.encoder_forward(Tensor(np.zeros((3, h, w))))
        for i, e in enumerate(encs, start=1):
            assert e.shape == (c * 2 ** (i - 1), h // 2 ** (i - 1), w // 2 ** (i - 1))
        out, shapes = decode_with_up_shapes(model, encs)
        for level, shape in zip((3, 2, 1), shapes, strict=True):
            assert shape == (c * 2 ** (level - 1), h // 2 ** (level - 1),
                             w // 2 ** (level - 1))
        assert out.shape == (3, h, w)


def test_compose_all_valid_mask_returns_input():
    model = InpaintingUNet(tiny_config(), make_rng(16))
    im = make_rng(17).uniform(0, 1, size=(3, 16, 16))
    mask = np.ones((1, 16, 16))
    pred = (model.forward(Tensor(2.0 * im - 1.0)).data + 1.0) / 2.0
    out = paste_known_pixels(pred, im, mask)
    assert np.array_equal(out, im)


def test_compose_mixes_regions():
    rng = make_rng(18)
    im = rng.uniform(0, 1, size=(3, 8, 8))
    net = rng.uniform(0, 1, size=(3, 8, 8))
    mask = np.zeros((1, 8, 8))
    mask[0, :4] = 1.0
    out = paste_known_pixels(net.copy(), im, mask)
    assert np.array_equal(out[:, :4], im[:, :4])
    assert np.array_equal(out[:, 4:], net[:, 4:])


def test_model_gradient_full():
    rng = make_rng(19)
    model = InpaintingUNet(tiny_config(), make_rng(20))
    im = Tensor(rng.uniform(-0.5, 0.5, size=(3, 16, 16)))
    r = Tensor(rng.normal(size=(3, 16, 16)))

    def f():
        return sum_all(hadamard(model.forward(im), r))

    err = finite_diff_check(f, model.parameters(), coords_per_param=2, seed=3)
    assert err < 1e-3


# ---------------------------------------------------------------------------
# config validation


def test_config_validation_errors():
    with pytest.raises(ValueError):
        tiny_config(block_counts=(1, 2, 3)).validate()
    with pytest.raises(ValueError):
        tiny_config(heads_per_level=(3,) * 7).validate()  # 4 not divisible by 3
    with pytest.raises(ValueError):
        tiny_config(taylor_mode="exp").validate()
    with pytest.raises(ValueError):
        tiny_config(norm="batch").validate()


def test_level_channels_indexing():
    cfg = tiny_config(base_channels=8)
    assert [cfg.level_channels(i) for i in range(7)] == [8, 16, 32, 64, 32, 16, 8]


# ---------------------------------------------------------------------------
# checkpoint


@pytest.mark.parametrize("overrides", [{}, {"norm": "none", "gated": False}])
def test_parameters_are_creation_order(created_parameters, overrides):
    # load_checkpoint fills parameters() in order from the data block, which
    # restores the saved model only if that order is the order of creation.
    model = InpaintingUNet(ModelConfig(base_channels=4, **overrides), make_rng(0))
    params = model.parameters()
    assert len(params) == len(created_parameters)
    assert all(a is b for a, b in zip(params, created_parameters))


def test_checkpoint_roundtrip(tmp_path):
    model = InpaintingUNet(tiny_config(base_channels=2), make_rng(21))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.data, b.data)
    im = Tensor(make_rng(22).uniform(-1, 1, size=(3, 16, 16)))
    assert np.array_equal(model.forward(im).data,
                          loaded.forward(im).data)


def test_parent_format_checkpoint_loads(tmp_path):
    # Checkpoints written before compose_output was removed carry its header
    # line; the loader ignores header keys that are not ModelConfig fields.
    model = InpaintingUNet(tiny_config(base_channels=2), make_rng(27))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    forge_checkpoint(path, rb"\nparam_count=", b"\ncompose_output=true\nparam_count=")
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    im = Tensor(make_rng(28).uniform(-1, 1, size=(3, 16, 16)))
    assert np.array_equal(model.forward(im).data, loaded.forward(im).data)


def test_checkpoint_load_draws_no_random_weights(tmp_path, monkeypatch):
    model = InpaintingUNet(tiny_config(base_channels=2), make_rng(23))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)

    def no_philox(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    loaded = load_checkpoint(path)
    for a, b in zip(model.parameters(), loaded.parameters(), strict=True):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_checksum_detects_corruption(tmp_path):
    model = InpaintingUNet(tiny_config(base_channels=2), make_rng(23))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    model = InpaintingUNet(tiny_config(base_channels=2), make_rng(24))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "model.ckpt")
    open(path, "wb").write(b"NOT-A-CHECKPOINT" * 4)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_header_bytes(tmp_path):
    # Header keys are ModelConfig's fields in declaration order, then param_count.
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(InpaintingUNet(ModelConfig(), make_rng(25)), path)
    expected = (b"LINPAINT-CKPT-1\n"
                b"base_channels=32\n"
                b"block_counts=1,2,3,4,3,2,1\n"
                b"heads_per_level=1,2,4,8,4,2,1\n"
                b"taylor_mode=residual\n"
                b"gated=true\n"
                b"norm=layer\n"
                b"ffn_expansion=2.0\n"
                b"param_count=5109219\n"
                b"end-header\n")
    with open(path, "rb") as fh:
        assert fh.read(len(expected)) == expected


def test_forged_width_rejected_before_allocating(tmp_path):
    # A C=64 header on a C=2 model's data: the model it describes would take
    # about 160 MB, the file is 87 KB. Only the header prefix is read before
    # the header is refused (35 KB peak; 114 KB when the whole file was read).
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(InpaintingUNet(tiny_config(base_channels=2), make_rng(26)), path)
    forge_checkpoint(path, rb"base_channels=\d+", b"base_channels=64")
    assert os.path.getsize(path) > 64 * 1024
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="parameters"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_bad_magic_refused_without_reading_the_file(tmp_path):
    # --checkpoint pointed at a 4 MiB file that is not a checkpoint: the
    # magic is checked before anything of the file's size is read.
    path = str(tmp_path / "big.bin")
    open(path, "wb").write(b"NOT-A-CHECKPOINT" * (1 << 18))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_checkpoint_header_must_end_within_the_prefix(tmp_path):
    # Unknown keys are ignored, but the header must end within the bounded
    # prefix that is read before the data block.
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(InpaintingUNet(tiny_config(base_channels=2), make_rng(27)), path)
    forge_checkpoint(path, rb"norm=layer", b"norm=layer\nnote=" + b"x" * 5000)
    with pytest.raises(CheckpointError, match="not terminated"):
        load_checkpoint(path)
