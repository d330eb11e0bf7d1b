"""Acceptance suite: one test per deliverable criterion, each at its stated
tolerance, printing a single PASS line with the measured numbers.

Run with:  pytest tests/test_acceptance.py -v -s
The training-based criteria dominate the runtime (several minutes on one core).
"""

import math
import time

import numpy as np
import pytest
from conftest import decode_with_up_shapes, reference_taylor, synth_image, synth_mask

from linpaint.attention import taylor_linear_attention, vanilla_attention
from linpaint.cli import RunConfig, main, run_bench, run_gradcheck, train_toy
from linpaint.cost import analytic_param_count, calibrate_channels, count_params
from linpaint.losses import power_iteration_sigma
from linpaint.metrics import ImagePair, psnr, ssim
from linpaint.netpbm import read_image, write_image, write_mask
from linpaint.tensor import Tensor, make_rng
from linpaint.unet import InpaintingUNet, ModelConfig, TransformerBlock


def _report(num: int, detail: str) -> None:
    print(f"\n[criterion {num:2d}] PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. Oracle equivalence of the linear-complexity attention


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = make_rng(100)
    worst = 0.0
    for mode in ("sum", "residual", "none"):
        for n in (16, 64, 256):
            for c in (4, 8, 16):
                q = rng.normal(size=(n, c))
                k = rng.normal(size=(n, c))
                v = rng.normal(size=(n, c))
                got = taylor_linear_attention(Tensor(q), Tensor(k), Tensor(v),
                                              mode=mode).data
                want = reference_taylor(q, k, v, mode)
                worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    _report(1, f"all modes x (N,C) grid within {worst:.2e} of the NxN oracle "
               f"(tol 1e-10) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Taylor-limit fidelity (second-order remainder against softmax)


def test_criterion_2_taylor_limit_slope():
    start = time.perf_counter()
    rng = make_rng(200)
    n, c = 48, 8
    qh = rng.normal(size=(n, c))
    qh /= np.linalg.norm(qh, axis=1, keepdims=True)
    kh = rng.normal(size=(n, c))
    kh /= np.linalg.norm(kh, axis=1, keepdims=True)
    v = rng.normal(size=(n, c))
    scales = [0.2, 0.1, 0.05, 0.025]
    errs = []
    for s in scales:
        f = math.sqrt(s)    # pairwise logits then scale exactly by s
        soft = vanilla_attention(Tensor(f * qh), Tensor(f * kh), Tensor(v),
                                 scaled=False).data
        lin = taylor_linear_attention(Tensor(f * qh), Tensor(f * kh), Tensor(v),
                                      mode="sum", normalize_qk=False).data
        errs.append(float(np.max(np.abs(soft - lin))))
    slope = float(np.polyfit(np.log(scales), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    assert 1.7 <= slope <= 2.3
    assert elapsed < 5.0
    _report(2, f"error decays with log-log slope {slope:.3f} in [1.7, 2.3] "
               f"(errors {['%.2e' % e for e in errs]})")


# ---------------------------------------------------------------------------
# 3. Complexity scaling: timed sweep


def test_criterion_3_complexity_scaling():
    start = time.perf_counter()
    res = [(32, 32), (64, 64), (128, 128), (256, 256)]   # N = 1024 .. 65536
    lin = run_bench(res, channels=32, modes=["residual"], repeats=3, seed=0,
                    csv_path=None)
    # A median of three, as for the linear mode: one slow sample in a single
    # sweep bent the fitted slope below the floor.
    quad = run_bench(res, channels=32, modes=["quadratic"], repeats=3, seed=0,
                     csv_path=None)
    elapsed = time.perf_counter() - start
    assert lin["residual"] <= 1.3
    assert quad["quadratic"] >= 1.7
    assert elapsed < 180.0
    _report(3, f"linear slope {lin['residual']:.2f} <= 1.3, quadratic slope "
               f"{quad['quadratic']:.2f} >= 1.7 ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 4. Gradient correctness at three scales


def test_criterion_4_gradient_suites():
    start = time.perf_counter()
    ok, lines = run_gradcheck("all", seed=0)
    elapsed = time.perf_counter() - start
    assert ok, "\n".join(lines)
    assert elapsed < 300.0
    worst_op = max(float(line.split("max rel err ")[1].split()[0])
                   for line in lines if line.startswith("op "))
    _report(4, f"{len(lines) - 2} primitive ops < 1e-4 (worst {worst_op:.1e}), "
               f"block and full model < 1e-3 ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 5. Shape law and residual identity


def test_criterion_5_shape_law():
    rng = make_rng(500)
    checked = 0
    for _ in range(20):
        c = int(rng.integers(1, 6))
        h = 8 * int(rng.integers(1, 5))
        w = 8 * int(rng.integers(1, 5))
        blocks = tuple(int(b) for b in rng.integers(0, 3, size=7))
        cfg = ModelConfig(base_channels=c, block_counts=blocks,
                          heads_per_level=(1,) * 7)
        model = InpaintingUNet(cfg, make_rng(501))
        encs = model.encoder_forward(Tensor(rng.normal(size=(3, h, w)) * 0.3))
        for i, e in enumerate(encs, start=1):
            assert e.shape == (c * 2 ** (i - 1), h // 2 ** (i - 1), w // 2 ** (i - 1))
        out, shapes = decode_with_up_shapes(model, encs)
        for level, shape in zip((3, 2, 1), shapes, strict=True):
            assert shape == (
                c * 2 ** (level - 1), h // 2 ** (level - 1), w // 2 ** (level - 1))
        assert out.shape == (3, h, w)
        checked += 1

    # Published-scale instance: 256x256 at C=32 gives a 256x32x32 bottleneck,
    # and the full forward completes without any NxN intermediate (the linear
    # attention path never builds one by construction).
    big = InpaintingUNet(ModelConfig(base_channels=32, block_counts=(1, 0, 0, 0, 0, 0, 0),
                                     heads_per_level=(1, 2, 4, 8, 4, 2, 1)),
                         make_rng(502))
    big_in = Tensor(make_rng(504).uniform(-1, 1, size=(3, 256, 256)))
    encs = big.encoder_forward(big_in)
    assert encs[3].shape == (256, 32, 32)
    assert big.decoder_forward(encs).shape == (3, 256, 256)

    # Zero weights: every residual block chain is the identity map.
    cfg = ModelConfig(base_channels=4, block_counts=(1,) * 7, heads_per_level=(1,) * 7)
    block = TransformerBlock(make_rng(503), 4, 1, cfg, "blk")
    for p in block.parameters():
        p.data[:] = 0.0
    x = Tensor(rng.normal(size=(4, 16, 16)))
    assert np.array_equal(block(x).data, x.data)
    _report(5, f"{checked} random lawful configs match the level shape rules; "
               f"E4(256,C=32) = 256x32x32; zero-weight blocks are identity")


# ---------------------------------------------------------------------------
# 6. Cost accounting and width calibration


def test_criterion_6_cost_accounting():
    configs = [
        ModelConfig(base_channels=2, block_counts=(1,) * 7, heads_per_level=(1,) * 7),
        ModelConfig(base_channels=3, block_counts=(2, 1, 0, 1, 0, 1, 2),
                    heads_per_level=(1,) * 7),
        ModelConfig(base_channels=4, block_counts=(1, 1, 1, 1, 1, 1, 1),
                    heads_per_level=(1, 2, 4, 8, 4, 2, 1)),
        ModelConfig(base_channels=2, block_counts=(1,) * 7, heads_per_level=(1,) * 7,
                    norm="none"),
        ModelConfig(base_channels=5, block_counts=(1, 0, 2, 0, 1, 0, 1),
                    heads_per_level=(1,) * 7, ffn_expansion=1.5),
    ]
    for cfg in configs:
        model = InpaintingUNet(cfg, make_rng(600))
        assert analytic_param_count(cfg) == count_params(model)

    # Hand-computed toy total (same arithmetic as test_cost): 3993 parameters.
    toy = ModelConfig(base_channels=2, block_counts=(1, 0, 0, 0, 0, 0, 0),
                      heads_per_level=(1,) * 7)
    assert analytic_param_count(toy) == 3993
    assert count_params(InpaintingUNet(toy, make_rng(601))) == 3993

    calib = calibrate_channels(sweep=(32, 40, 48, 64))
    lines = calib.format_lines()
    assert any("14.8M" in line for line in lines)
    gap_line = lines[-1]
    assert "param gap" in gap_line
    for line in lines:
        print(line)
    _report(6, f"census == analytic on {len(configs)} configs; toy total 3993 "
               f"exact; best C={calib.best_channels} with param gap "
               f"{calib.param_gap:+.1%} (recorded, not gated)")


# ---------------------------------------------------------------------------
# 7. Ablation toggles are live


def test_criterion_7_ablation_axes():
    from linpaint.attention import AttentionConfig, ProjectionSet, gated_attention
    rng = make_rng(700)
    proj = ProjectionSet.init(8, rng)
    x = Tensor(rng.normal(size=(8, 8, 8)))
    outs = {}
    for mode, gated in ((("residual"), True), ("none", True), ("residual", False)):
        cfg = AttentionConfig(channels=8, heads=2, taylor_mode=mode, gated=gated)
        outs[(mode, gated)] = gated_attention(x, proj, cfg).data
    d_value = float(np.max(np.abs(outs[("residual", True)] - outs[("none", True)])))
    d_gate = float(np.max(np.abs(outs[("residual", True)] - outs[("residual", False)])))
    assert d_value > 1e-6
    assert d_gate > 1e-6
    _report(7, f"value-shortcut toggle changes output by {d_value:.2e}, gating "
               f"toggle by {d_gate:.2e} (> 1e-6)")


# ---------------------------------------------------------------------------
# 8. Desk-scale training end to end (shared fixture)


TRAIN_SEED = 5


@pytest.fixture(scope="module")
def toy_training(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    img = np.round(synth_image(64, 64, seed=0) * 255) / 255.0
    mask = synth_mask(64, 64, 0.30, seed=1)
    img_path = str(tmp / "img.ppm")
    mask_path = str(tmp / "mask.pgm")
    write_image(img_path, img)
    write_mask(mask_path, mask)

    run = RunConfig()
    run.model = ModelConfig(base_channels=16, block_counts=(1,) * 7,
                            heads_per_level=(1, 2, 4, 8, 4, 2, 1))
    run.seed, run.iters, run.lr = TRAIN_SEED, 500, 1e-3
    ckpt = str(tmp / "model.ckpt")
    csv = str(tmp / "log.csv")
    start = time.perf_counter()
    result = train_toy(run, read_image(img_path), mask, csv, ckpt)
    elapsed = time.perf_counter() - start
    return dict(result=result, elapsed=elapsed, img_path=img_path,
                mask_path=mask_path, ckpt=ckpt, csv=csv, img=img, mask=mask,
                tmp=tmp)


def test_criterion_8_training(toy_training):
    res = toy_training["result"]
    elapsed = toy_training["elapsed"]
    ratio = res.masked_l1_last / res.masked_l1_first
    gain = res.psnr_final - res.psnr_baseline
    assert ratio <= 0.20
    assert gain >= 3.0
    assert elapsed < 600.0

    # End-to-end file surface: inpainting from the checkpoint beats the
    # zero-filled input on PSNR.
    out_path = str(toy_training["tmp"] / "inpainted.ppm")
    rc = main(["inpaint", "--checkpoint", toy_training["ckpt"],
               "--image", toy_training["img_path"],
               "--mask", toy_training["mask_path"], "--out", out_path])
    assert rc == 0
    img = toy_training["img"]
    mask = toy_training["mask"]
    filled = read_image(out_path)
    baseline = mask * img + (1.0 - mask) * 0.5
    assert psnr(ImagePair(img, filled)) > psnr(ImagePair(img, baseline))
    _report(8, f"masked L1 {res.masked_l1_first:.4f} -> {res.masked_l1_last:.4f} "
               f"(ratio {ratio:.3f} <= 0.20); psnr {res.psnr_baseline:.1f} -> "
               f"{res.psnr_final:.1f} dB (gain {gain:+.1f} >= 3); "
               f"{elapsed / 60:.1f} min; inpaint file beats baseline")


# ---------------------------------------------------------------------------
# 9. Metrics sanity


def test_criterion_9_metrics_sanity():
    rng = make_rng(900)
    ref = rng.uniform(0.0, 1.0 - 1.0 / 255.0, size=(3, 16, 16))
    val = psnr(ImagePair(ref, ref + 1.0 / 255.0))
    assert abs(val - 48.1308) <= 0.001

    im = rng.uniform(size=(3, 16, 16))
    assert ssim(ImagePair(im, im)) == 1.0

    u = make_rng(901).normal(size=2)
    u /= np.linalg.norm(u)
    for _ in range(20):
        sigma = power_iteration_sigma(np.diag([3.0, 1.0]), u)
    assert abs(sigma - 3.0) <= 1e-6
    _report(9, f"psnr(1/255) = {val:.4f} dB (48.1308 +- 0.001); ssim(x,x) == 1.0 "
               f"exactly; sigma(diag(3,1)) = {sigma:.8f} (3 +- 1e-6)")


# ---------------------------------------------------------------------------
# 10. Determinism: bit-identical logs and checkpoints


def test_criterion_10_determinism(tmp_path):
    img = np.round(synth_image(32, 32, seed=4) * 255) / 255.0
    mask = synth_mask(32, 32, 0.25, seed=5)
    img_path = str(tmp_path / "img.ppm")
    mask_path = str(tmp_path / "mask.pgm")
    write_image(img_path, img)
    write_mask(mask_path, mask)
    cfg_path = str(tmp_path / "toy.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("base_channels=2\nblock_counts=1,1,1,1,1,1,1\n"
                 "heads_per_level=1,1,1,1,1,1,1\ndisc_width=4\n")

    blobs = []
    for tag in ("a", "b"):
        csv = str(tmp_path / f"log_{tag}.csv")
        ckpt = str(tmp_path / f"model_{tag}.ckpt")
        count_csv = str(tmp_path / f"count_{tag}.csv")
        rc = main(["train-toy", "--config", cfg_path, "--image", img_path,
                   "--mask", mask_path, "--iters", "3", "--lr", "0.001",
                   "--seed", "9", "--csv", csv, "--checkpoint", ckpt])
        assert rc == 0
        rc = main(["count", "--config", cfg_path, "--height", "32",
                   "--width", "32", "--csv", count_csv])
        assert rc == 0
        blobs.append((open(csv, "rb").read(), open(ckpt, "rb").read(),
                      open(count_csv, "rb").read()))
    assert blobs[0] == blobs[1]
    _report(10, "two identically seeded runs: loss CSV, checkpoint and count "
                "CSV are byte-identical")
