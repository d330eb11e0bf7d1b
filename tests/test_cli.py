import argparse
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import forge_checkpoint, synth_image, synth_mask

from linpaint.cli import (
    KNOWN_KEYS,
    ConfigError,
    RunConfig,
    _flag_overrides,
    build_parser,
    build_run_config,
    load_run_config,
    main,
    parse_config_text,
    run_bench,
    train_toy,
)
from linpaint.netpbm import (
    NetpbmError,
    read_gray,
    read_image,
    read_mask,
    write_gray,
    write_image,
    write_mask,
)
from linpaint.tensor import NonFiniteError, ShapeError, make_rng
from linpaint.unet import (
    CheckpointError,
    InpaintingUNet,
    ModelConfig,
    format_config,
    load_checkpoint,
    save_checkpoint,
)

TOY_CONFIG = """\
# toy model for fast tests
base_channels=2
block_counts=1,1,1,1,1,1,1
heads_per_level=1,1,1,1,1,1,1
disc_width=4
"""


SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    # Importing scipy.special alone costs about as much as the rest of the
    # package's import; numpy is linpaint's only runtime dependency.
    code = ("import sys, linpaint, linpaint.cli; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


# ---------------------------------------------------------------------------
# netpbm


def test_ppm_roundtrip(tmp_path):
    path = str(tmp_path / "img.ppm")
    img = np.round(make_rng(0).uniform(size=(3, 8, 8)) * 255) / 255.0
    write_image(path, img)
    back = read_image(path)
    assert np.array_equal(back, img)


def test_pgm_roundtrip_and_comment_header(tmp_path):
    path = str(tmp_path / "img.pgm")
    img = np.round(make_rng(1).uniform(size=(1, 5, 7)) * 255) / 255.0
    write_gray(path, img)
    assert np.array_equal(read_gray(path), img)
    raw = open(path, "rb").read()
    commented = raw[:2] + b"\n# a comment\n" + raw[2:]
    open(path, "wb").write(commented)
    assert np.array_equal(read_gray(path), img)


def test_mask_convention(tmp_path):
    path = str(tmp_path / "mask.pgm")
    mask = synth_mask(8, 8, 0.25, seed=2)
    write_mask(path, mask)
    assert np.array_equal(read_mask(path), mask)


def test_mask_intermediate_gray_rejected(tmp_path):
    path = str(tmp_path / "gray.pgm")
    write_gray(path, np.full((1, 4, 4), 0.5))
    with pytest.raises(NetpbmError, match="neither"):
        read_mask(path)


def test_truncated_file_names_byte_offset(tmp_path):
    path = str(tmp_path / "img.ppm")
    write_image(path, np.zeros((3, 4, 4)))
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-10])
    with pytest.raises(NetpbmError, match="byte"):
        read_image(path)


def test_bad_magic_and_maxval(tmp_path):
    path = str(tmp_path / "bad.ppm")
    open(path, "wb").write(b"P3\n2 2\n255\n")
    with pytest.raises(NetpbmError, match="magic"):
        read_image(path)
    open(path, "wb").write(b"P6\n2 2\n65535\n" + b"\x00" * 24)
    with pytest.raises(NetpbmError, match="maxval"):
        read_image(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_roundtrip():
    pairs = parse_config_text(TOY_CONFIG)
    run = build_run_config(pairs)
    assert run.model.base_channels == 2
    assert run.disc_width == 4
    run.validate()


# Settings that are now constants: the model's attn_eps and divide, the loss
# weights and the feature extractor's seed.
RETIRED_FLOAT_KEYS = ("attn_eps", "lambda_reconstruction", "lambda_perceptual",
                      "lambda_style", "lambda_adversarial")
RETIRED_KEYS = RETIRED_FLOAT_KEYS + ("divide", "fx_seed")


def test_unknown_key_rejected():
    for line in ["bogus_key=1"] + [f"{key}=1" for key in RETIRED_KEYS]:
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(line + "\n")


def test_build_run_config_names_every_unknown_key():
    # Pairs built by a caller, not read from a file, are checked too.
    with pytest.raises(ConfigError) as info:
        build_run_config({"fx_seed": "-1", "lambda_style": "nan", "bogus": "x"})
    assert str(info.value) == "unknown keys 'bogus', 'fx_seed', 'lambda_style'"


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed=1\nseed=2\n")


@pytest.mark.parametrize("key", ["seed"])
def test_negative_seed_rejected(key):
    with pytest.raises(ConfigError, match=f"^{key} must be >= 0"):
        build_run_config({key: "-1"})


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        build_run_config({"base_channels": "many"})
    with pytest.raises(ConfigError, match="bad value"):
        build_run_config({"gated": "yes"})


def test_flag_overrides_config_file(tmp_path):
    path = str(tmp_path / "run.cfg")
    open(path, "w").write(TOY_CONFIG + "seed=7\n")
    # Each flag that sets a setting has its config key as its dest.
    ns = build_parser().parse_args(
        ["train-toy", "--config", path, "--mode", "none", "--no-gate", "--no-norm",
         "--seed", "9", "--image", "i", "--mask", "m", "--iters", "3", "--lr", "0.5",
         "--csv", "l.csv", "--checkpoint", "k"])
    overrides = _flag_overrides(ns)
    assert overrides == {
        "taylor_mode": "none", "gated": "false", "norm": "none", "seed": "9",
        "image": "i", "mask": "m", "iters": "3", "lr": "0.5", "checkpoint": "k"}
    run = load_run_config(ns.config, overrides)
    assert run.seed == 9
    assert run.model.taylor_mode == "none"
    assert _flag_overrides(build_parser().parse_args(["count"])) == {}


def test_invalid_model_config_is_config_error():
    with pytest.raises(ConfigError):
        build_run_config({"block_counts": "1,2,3"})


def test_config_keys_are_model_loss_and_run_fields():
    # The loss side has no keys: its weights and extractor seed are constants.
    assert KNOWN_KEYS == {
        "base_channels", "block_counts", "heads_per_level", "taylor_mode",
        "gated", "norm", "ffn_expansion",
        "seed", "iters", "lr", "weight_decay", "disc_width",
        "image", "mask", "checkpoint",
    }


# The flags of count and train-toy that set no config key.
VERB_OWN_FLAGS = {"count": {"config", "csv", "height", "width", "calibrate"},
                  "train-toy": {"config", "csv"}}


def _verbs():
    """The verbs of build_parser(), each with its options but --help."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {verb: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for verb, p in sub.choices.items()}


@pytest.mark.parametrize("verb", sorted(VERB_OWN_FLAGS))
def test_every_settings_flag_dest_is_a_config_key(verb):
    # A flag that sets a setting does so only through its config key.
    for action in _verbs()[verb]:
        assert action.dest in KNOWN_KEYS | VERB_OWN_FLAGS[verb], action.option_strings


def test_every_model_field_round_trips_through_config_text_and_checkpoint(tmp_path):
    config = ModelConfig(base_channels=4, block_counts=(1, 0, 2, 0, 1, 0, 1),
                         heads_per_level=(2, 2, 4, 2, 4, 2, 2), taylor_mode="sum",
                         gated=False, norm="none", ffn_expansion=1.5)
    assert all(getattr(config, f.name) != f.default for f in fields(ModelConfig))
    text = "\n".join(format_config(config))
    assert build_run_config(parse_config_text(text)).model == config
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(InpaintingUNet(config, make_rng(15)), path)
    assert load_checkpoint(path).config == config


def test_readme_config_table_names_every_key():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    table = readme[readme.index("| group | keys |"):].split("\n\n")[0]
    named = set()
    for row in table.splitlines()[2:]:
        keys = re.sub(r"\([^)]*\)", "", row.split("|")[2])   # drop the value notes
        named.update(re.findall(r"`([^`]+)`", keys))
    assert named == KNOWN_KEYS


def test_readme_flag_table_matches_parser():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    table = readme[readme.index("| verb | flags |"):].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[2:]:
        cells = row.split("|")
        documented[cells[1].strip(" `")] = set(re.findall(r"`([^`]+)`", cells[2]))
    registered = {verb: {opt for a in actions for opt in a.option_strings}
                  for verb, actions in _verbs().items()}
    assert documented == registered


def test_run_config_validation():
    run = RunConfig()
    run.iters = -1
    with pytest.raises(ConfigError):
        run.validate()


# ---------------------------------------------------------------------------
# commands


def test_count_command_prints_reference_row(tmp_path, capsys):
    cfg_path = str(tmp_path / "run.cfg")
    open(cfg_path, "w").write(TOY_CONFIG)
    csv_path = str(tmp_path / "cost.csv")
    rc = main(["count", "--config", cfg_path, "--height", "32", "--width", "32",
               "--csv", csv_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "14.8M" in out and "51.3G" in out
    assert "best C=" in out
    assert open(csv_path).readline().strip() == "layer,name,params,macs"


def test_count_rejects_bad_dims(tmp_path, capsys):
    rc = main(["count", "--height", "20", "--width", "32"])
    assert rc == 1


def test_bench_csv_shape(tmp_path):
    csv_path = str(tmp_path / "bench.csv")
    slopes = run_bench([(8, 8), (16, 16)], channels=4,
                       modes=["residual", "quadratic"], repeats=1, seed=0,
                       csv_path=csv_path)
    rows = open(csv_path).read().strip().splitlines()
    assert rows[0] == "mode,N,C,median_seconds,macs"
    assert len(rows) == 1 + 2 * 2
    assert set(slopes) == {"residual", "quadratic"}


def test_bench_rejects_single_resolution():
    with pytest.raises(ConfigError):
        run_bench([(8, 8)], 4, ["residual"], 1, 0, None)


def test_bench_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        run_bench([(8, 8), (16, 16)], 4, ["softmaxish"], 1, 0, None)


def test_bench_rejects_empty_mode_list(capsys):
    assert main(["bench", "--resolutions", "8x8,16x16", "--modes", ","]) == 1
    assert "at least one bench mode" in capsys.readouterr().err


def test_gradcheck_ops_scope(capsys):
    rc = main(["gradcheck", "--scope", "ops", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "op matmul" in out and "pass" in out and "FAIL" not in out
    assert "op conv2d_1x1" in out and "op conv2d_k4s2" in out
    for name in ("matmul_batched", "transpose_batched",
                 "multi_head_attention", "feed_forward"):
        assert f"op {name}:" in out
    assert out.strip().splitlines()[-1].startswith("op feed_forward:")
    # One unit per op that the library runs, and no other.
    units = [line.split(":")[0].removeprefix("op ") for line in out.strip().splitlines()]
    assert units == [
        "matmul", "transpose", "conv2d", "conv2d_1x1", "conv2d_k4s2",
        "gelu", "tanh", "sigmoid", "leaky_relu", "absolute", "layer_norm_sites",
        "matmul_batched", "transpose_batched", "multi_head_attention",
        "upsample_conv2d", "feed_forward"]


def test_gradcheck_failure_exit_code(monkeypatch, capsys):
    import linpaint.cli as cli
    monkeypatch.setattr(cli, "run_gradcheck",
                        lambda scope, seed: (False, ["op broken: max rel err 1.0e+00 "
                                                     "(FAIL at 1e-4)"]))
    rc = main(["gradcheck", "--scope", "ops"])
    assert rc == 3


# ---------------------------------------------------------------------------
# training + inpainting


def _write_pair(tmp_path, h=32, w=32, ratio=0.25, seed=0):
    img_path = str(tmp_path / "img.ppm")
    mask_path = str(tmp_path / "mask.pgm")
    img = synth_image(h, w, seed=seed)
    img = np.round(img * 255) / 255.0
    write_image(img_path, img)
    mask = synth_mask(h, w, ratio, seed=seed + 1)
    write_mask(mask_path, mask)
    return img_path, mask_path


def test_train_toy_lr_zero_keeps_losses_constant(tmp_path):
    img_path, mask_path = _write_pair(tmp_path)
    run = build_run_config(parse_config_text(TOY_CONFIG))
    run.iters = 3
    run.lr = 0.0
    result = train_toy(run, read_image(img_path), read_mask(mask_path), None, None)
    assert result.csv_rows[0] == "iter,rec,perc,style,adv,total"
    rows = [r.split(",") for r in result.csv_rows[1:]]
    # Generator and extractor are frozen, so these columns repeat bitwise.
    for col in (1, 2, 3):
        assert len({r[col] for r in rows}) == 1
    # The adversarial column is constant up to the spectral-norm power
    # iteration refining its sigma estimate between forwards.
    advs = [float(r[4]) for r in rows]
    assert max(advs) - min(advs) < 2e-6


def test_train_toy_determinism_bit_identical(tmp_path):
    img_path, mask_path = _write_pair(tmp_path, seed=3)
    outputs = []
    for tag in ("a", "b"):
        csv_path = str(tmp_path / f"log_{tag}.csv")
        ckpt_path = str(tmp_path / f"model_{tag}.ckpt")
        rc = main(["train-toy", "--image", img_path, "--mask", mask_path,
                   "--iters", "2", "--lr", "0.001", "--seed", "5",
                   "--csv", csv_path, "--checkpoint", ckpt_path,
                   "--config", _toy_cfg(tmp_path)])
        assert rc == 0
        outputs.append((open(csv_path, "rb").read(), open(ckpt_path, "rb").read()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def _toy_cfg(tmp_path):
    path = str(tmp_path / "toy.cfg")
    open(path, "w").write(TOY_CONFIG)
    return path


# Loss rows of train_toy at base_channels=4, 32x32, disc_width=4, lr=1e-3,
# seed 0, recorded before the spectral norm became a one-step function. They
# shift by about 1e-14 relative with the BLAS thread count, hence rtol 1e-10.
PINNED_ROWS = [
    (0.3677042254445361, 0.08340857229654455, 0.0047276094077012085,
     0.6977467544773771, 1.7027898251141207),
    (0.34346406529515616, 0.06787435374035125, 0.004443235328742505,
     0.696806208415481, 1.5918278720626817),
    (0.3352266436819173, 0.06526722193582837, 0.004371794169551473,
     0.6975591694232971, 1.5631983249479435),
]


def test_train_toy_loss_rows_match_recorded_values():
    img = np.round(synth_image(32, 32, seed=0) * 255) / 255.0
    mask = synth_mask(32, 32, 0.25, seed=1)
    run = RunConfig(model=ModelConfig(base_channels=4), seed=0, iters=3, lr=1e-3,
                    disc_width=4)
    result = train_toy(run, img, mask, None, None)
    rows = [[float(v) for v in line.split(",")] for line in result.csv_rows[1:]]
    assert [row[0] for row in rows] == [0, 1, 2]
    for row, pinned in zip(rows, PINNED_ROWS, strict=True):
        assert row[1:] == pytest.approx(pinned, rel=1e-10, abs=0.0)


def _float_keys():
    """Every float setting's config key, and the retired float keys, which a
    config file can no longer set."""
    keys = []
    for default in (ModelConfig(), RunConfig()):
        keys += [f.name for f in fields(default) if isinstance(getattr(default, f.name), float)]
    return keys + list(RETIRED_FLOAT_KEYS)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", _float_keys())
def test_non_finite_float_setting_is_validation_error(tmp_path, capsys, key, value):
    img_path, mask_path = _write_pair(tmp_path)
    cfg_path = str(tmp_path / "bad.cfg")
    open(cfg_path, "w").write(TOY_CONFIG + f"{key}={value}\n")
    for argv in (["count"], ["train-toy", "--image", img_path, "--mask", mask_path]):
        assert main(argv + ["--config", cfg_path]) == 1, argv
        assert key in capsys.readouterr().err


def test_train_toy_rejects_bad_dims(tmp_path):
    run = build_run_config(parse_config_text(TOY_CONFIG))
    with pytest.raises(ConfigError, match="divisible"):
        train_toy(run, np.zeros((3, 20, 20)), np.ones((1, 20, 20)), None, None)
    with pytest.raises(ConfigError, match="mask"):
        train_toy(run, np.zeros((3, 32, 32)), np.ones((1, 16, 16)), None, None)
    with pytest.raises(ConfigError, match="0 or 1"):
        train_toy(run, np.zeros((3, 32, 32)), np.full((1, 32, 32), 0.5), None, None)


def test_inpaint_all_valid_mask_is_identity(tmp_path, capsys):
    img_path, _ = _write_pair(tmp_path, seed=7)
    mask_path = str(tmp_path / "allvalid.pgm")
    write_mask(mask_path, np.ones((1, 32, 32)))
    ckpt_path = str(tmp_path / "model.ckpt")
    model = InpaintingUNet(ModelConfig(base_channels=2, block_counts=(1,) * 7,
                                       heads_per_level=(1,) * 7), make_rng(11))
    save_checkpoint(model, ckpt_path)
    out_path = str(tmp_path / "out.ppm")
    rc = main(["inpaint", "--checkpoint", ckpt_path, "--image", img_path,
               "--mask", mask_path, "--out", out_path])
    assert rc == 0
    assert open(out_path, "rb").read() == open(img_path, "rb").read()


def test_inpaint_output_parses_in_unit_range(tmp_path):
    img_path, mask_path = _write_pair(tmp_path, seed=9)
    ckpt_path = str(tmp_path / "model.ckpt")
    model = InpaintingUNet(ModelConfig(base_channels=2, block_counts=(1,) * 7,
                                       heads_per_level=(1,) * 7), make_rng(12))
    save_checkpoint(model, ckpt_path)
    out_path = str(tmp_path / "out.ppm")
    rc = main(["inpaint", "--checkpoint", ckpt_path, "--image", img_path,
               "--mask", mask_path, "--out", out_path])
    assert rc == 0
    out = read_image(out_path)
    assert out.shape == (3, 32, 32)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    # valid pixels pass through bit-exactly
    mask = read_mask(mask_path)
    img = read_image(img_path)
    valid = mask[0] == 1.0
    assert np.array_equal(out[:, valid], img[:, valid])


def test_inpaint_corrupted_checkpoint_exit_code(tmp_path, capsys):
    img_path, mask_path = _write_pair(tmp_path, seed=13)
    ckpt_path = str(tmp_path / "model.ckpt")
    model = InpaintingUNet(ModelConfig(base_channels=2, block_counts=(1,) * 7,
                                       heads_per_level=(1,) * 7), make_rng(14))
    save_checkpoint(model, ckpt_path)
    raw = bytearray(open(ckpt_path, "rb").read())
    raw[-10] ^= 0x55
    open(ckpt_path, "wb").write(bytes(raw))
    rc = main(["inpaint", "--checkpoint", ckpt_path, "--image", img_path,
               "--mask", mask_path, "--out", str(tmp_path / "o.ppm")])
    assert rc == 2


# (pattern, replacement, a text the error message must contain)
@pytest.mark.parametrize("pattern,replacement,named", [
    (rb"base_channels=\d+", b"base_channels=x", "base_channels"),
    (rb"param_count=\d+", b"param_count=abc", "'abc'"),
    (rb"base_channels=\d+", b"base_channels=0", "base_channels"),
    (rb"block_counts=[\d,]+", b"block_counts=1,1", "block_counts"),
    (rb"taylor_mode=\w+", "taylor_mode=r\u00e9sidual".encode(), "ascii"),
    (rb"\nnorm=\w+", b"", "'norm'"),
    (rb"gated=\w+", b"gated=yes", "gated"),
    (rb"ffn_expansion=[^\n]+", b"ffn_expansion=inf", "ffn_expansion"),
    # More blocks than the data block has parameters.
    (rb"block_counts=[\d,]+", b"block_counts=2000,0,0,0,0,0,0", "2000 blocks"),
    # Retired keys of older checkpoints, at a value the model no longer has.
    (rb"\nparam_count=", b"\ndivide=false\nparam_count=", "divide"),
    (rb"\nparam_count=", b"\nnormalize_qk=false\nparam_count=", "normalize_qk"),
    (rb"\nparam_count=", b"\nin_channels=1\nparam_count=", "in_channels"),
    (rb"\nparam_count=", b"\nout_channels=1\nparam_count=", "out_channels"),
    (rb"\nparam_count=", b"\nattn_eps=1e-05\nparam_count=", "attn_eps"),
    (rb"\nparam_count=", b"\nattn_eps=0.0\nparam_count=", "attn_eps"),
    (rb"\nparam_count=", b"\nattn_eps=nan\nparam_count=", "attn_eps"),
    # A key given twice, even at the same value, and a line that is no pair.
    (rb"\n(param_count=\d+)", rb"\n\1\n\1", "repeated key 'param_count'"),
    (rb"\nparam_count=", b"\ncompose_output\nparam_count=", "'compose_output'"),
], ids=["width-text", "count-text", "width-zero", "two-block-counts", "non-ascii",
        "missing-key", "bad-bool", "infinite-expansion",
        "blocks-beyond-params", "retired-divide", "retired-normalize_qk",
        "retired-in_channels", "retired-out_channels", "retired-attn_eps",
        "zero-eps", "nan-eps", "repeated-key", "no-equals"])
def test_inpaint_forged_header_exit_code(tmp_path, capsys, pattern, replacement, named):
    img_path, mask_path = _write_pair(tmp_path, seed=15)
    ckpt_path = str(tmp_path / "model.ckpt")
    config = ModelConfig(base_channels=1, block_counts=(1, 0, 0, 0, 0, 0, 0),
                         heads_per_level=(1,) * 7)
    save_checkpoint(InpaintingUNet(config, make_rng(16)), ckpt_path)
    forge_checkpoint(ckpt_path, pattern, replacement)
    rc = main(["inpaint", "--checkpoint", ckpt_path, "--image", img_path,
               "--mask", mask_path, "--out", str(tmp_path / "o.ppm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad checkpoint header" in err and named in err


def test_inpaint_reads_checkpoint_with_retired_keys_at_kept_values(tmp_path):
    # Checkpoints written while in_channels, out_channels, normalize_qk,
    # divide and attn_eps were model settings carry their lines; at the values
    # the model now always has they load as the same model.
    img_path, mask_path = _write_pair(tmp_path, seed=19)
    ckpt_path = str(tmp_path / "model.ckpt")
    save_checkpoint(InpaintingUNet(ModelConfig(base_channels=2, block_counts=(1,) * 7,
                                               heads_per_level=(1,) * 7), make_rng(20)),
                    ckpt_path)

    def inpaint(name):
        out_path = str(tmp_path / name)
        assert main(["inpaint", "--checkpoint", ckpt_path, "--image", img_path,
                     "--mask", mask_path, "--out", out_path]) == 0
        return open(out_path, "rb").read()

    current = inpaint("current.ppm")
    # Where the older formats wrote them: attn_eps last of the model's keys,
    # exactly as the format before this one did.
    forge_checkpoint(ckpt_path, rb"\nparam_count=", b"\nattn_eps=1e-06\nparam_count=")
    assert b"\nffn_expansion=2.0\nattn_eps=1e-06\nparam_count=" in open(ckpt_path, "rb").read()
    assert inpaint("with_attn_eps.ppm") == current
    forge_checkpoint(ckpt_path, rb"\ntaylor_mode=",
                     b"\nin_channels=3\nout_channels=3\ntaylor_mode=")
    forge_checkpoint(ckpt_path, rb"\nparam_count=",
                     b"\nnormalize_qk=true\ndivide=true\nparam_count=")
    assert inpaint("older.ppm") == current


def test_inpaint_rejects_ungated_checkpoint_with_gate_weights(tmp_path, capsys):
    # Ungated models used to store the unused gate projection too: at C=4
    # that layout has 93439 parameters, the gated model's count, where an
    # ungated model now has 87255.
    img_path, mask_path = _write_pair(tmp_path, seed=17)
    ckpt_path = str(tmp_path / "model.ckpt")
    save_checkpoint(InpaintingUNet(ModelConfig(base_channels=4), make_rng(18)), ckpt_path)
    forge_checkpoint(ckpt_path, rb"gated=true", b"gated=false")
    rc = main(["inpaint", "--checkpoint", ckpt_path, "--image", img_path,
               "--mask", mask_path, "--out", str(tmp_path / "o.ppm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad checkpoint header" in err and "93439" in err


# A hidden width of base_channels * 8 * ffn_expansion beyond float range
# (the last case) is as unusable as a non-finite expansion.
@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e308"])
def test_count_rejects_nonfinite_ffn_expansion(tmp_path, capsys, value):
    cfg = str(tmp_path / "f.cfg")
    open(cfg, "w").write(f"ffn_expansion={value}\n")
    assert main(["count", "--config", cfg]) == 1
    assert "ffn_expansion" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="ffn_expansion"):
        build_run_config({"ffn_expansion": value})


def test_main_exit_codes(tmp_path, capsys):
    bad_cfg = str(tmp_path / "bad.cfg")
    open(bad_cfg, "w").write("nonsense=1\n")
    assert main(["count", "--config", bad_cfg]) == 1
    assert main(["train-toy", "--image", str(tmp_path / "missing.ppm"),
                 "--mask", str(tmp_path / "missing.pgm")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1


# Each verb registers only the flags it reads; the rest are argument errors.
@pytest.mark.parametrize("argv", [
    ["inpaint", "--seed", "1"],
    ["inpaint", "--config", "f"],
    ["gradcheck", "--config", "f"],
    ["bench", "--config", "f"],
    ["count", "--seed", "1"],
    ["count", "--mode", "sum"],
], ids=["inpaint-seed", "inpaint-config", "gradcheck-config", "bench-config",
        "count-seed", "count-mode"])
def test_unread_flags_are_rejected(tmp_path, capsys, argv):
    if argv[0] == "inpaint":
        argv = argv + ["--checkpoint", "c", "--image", "i", "--mask", "m",
                       "--out", str(tmp_path / "o.ppm")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


# A flag value the command cannot use is an argument error naming the flag.
@pytest.mark.parametrize("argv,flag", [
    (["bench", "--seed", "-1"], "--seed"),
    (["gradcheck", "--seed", "-1"], "--seed"),
    (["count", "--calibrate", "32,,48"], "--calibrate"),
    (["count", "--calibrate", "0"], "--calibrate"),
], ids=["bench-seed", "gradcheck-seed", "count-calibrate", "count-calibrate-zero"])
def test_bad_flag_value_names_the_flag(capsys, argv, flag):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("error,code", [
    (NetpbmError("bad netpbm"), 2),
    (CheckpointError("bad checkpoint"), 2),
    (OSError("no such file"), 2),
    (NonFiniteError("non-finite"), 2),
    (ConfigError("bad config"), 1),
    (ShapeError("bad shape"), 1),
    (ValueError("bad value"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_main_exit_code_per_error_type(monkeypatch, capsys, error, code):
    import linpaint.cli as cli

    def fail(ns):
        raise error

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    assert main(["gradcheck"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"
