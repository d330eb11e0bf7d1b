"""Batch command-line surface.

Verbs:
  bench      time linearized attention against the quadratic reference
  count      print per-layer parameter/MAC accounting and width calibration
  train-toy  overfit the inpainting model on one image/mask pair
  inpaint    fill an image's missing region from a trained checkpoint
  gradcheck  run the finite-difference gradient suites

Everything is deterministic given (config, seed) at a fixed BLAS thread
count: the PRNG is the counter-based Philox generator seeded explicitly, and
all CSV output uses a fixed column order with full-precision floats. Masks
follow the white=valid, black=missing convention. Images are normalized to
[0, 1] at the file and metric boundary and to [-1, 1] (missing pixels
zero-filled) inside the network.

Exit codes: 0 success, 1 validation error, 2 runtime failure, 3 test-suite
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .attention import (
    TAYLOR_MODES,
    AttentionConfig,
    ProjectionSet,
    gated_projection,
    multi_head_attention,
    taylor_attention_quadratic,
    taylor_linear_attention,
)
from .autograd import Parameter, Tape, adamw_step, finite_diff_check, zero_grads
from .cost import (
    calibrate_channels,
    cost_report,
    linear_attention_macs,
    quadratic_attention_macs,
)
from .losses import (
    PatchDiscriminator,
    RandomConvFeatureExtractor,
    discriminator_loss,
    total_loss,
)
from .metrics import ImagePair, psnr
from .netpbm import NetpbmError, read_image, read_mask, write_image
from .tensor import NonFiniteError, Tensor, make_rng
from .unet import (
    CheckpointError,
    InpaintingUNet,
    ModelConfig,
    load_checkpoint,
    parse_config,
    save_checkpoint,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_TESTFAIL = 3


class ConfigError(ValueError):
    """Invalid run configuration (bad key, bad value, missing file path)."""


# ---------------------------------------------------------------------------
# Run configuration: text file of key=value lines, overridden by flags.


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    seed: int = 0
    iters: int = 500
    lr: float = 1e-4
    weight_decay: float = 0.0
    disc_width: int = 64
    image: str | None = None
    mask: str | None = None
    checkpoint: str | None = None

    def validate(self) -> None:
        try:
            self.model.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name in ("seed", "iters"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.disc_width < 1:
            raise ConfigError(f"disc_width must be >= 1, got {self.disc_width}")


# Config keys: the model's fields and the run's own scalar fields. A flag that
# sets one has the key as its dest.
KNOWN_KEYS = ({f.name for f in fields(ModelConfig)}
              | {f.name for f in fields(RunConfig) if f.default is not MISSING})


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def build_run_config(pairs: dict[str, str]) -> RunConfig:
    unknown = sorted(set(pairs) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys {', '.join(map(repr, unknown))}")
    run = RunConfig()
    try:
        run = parse_config(run, pairs)
        run.model = parse_config(run.model, pairs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    run.validate()
    return run


def load_run_config(path: str | None, overrides: dict[str, str]) -> RunConfig:
    pairs: dict[str, str] = {}
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        pairs = parse_config_text(text, source=path)
    pairs.update(overrides)
    return build_run_config(pairs)


def _flag_overrides(ns: argparse.Namespace) -> dict[str, str]:
    """The config keys the given flags set: each such flag's dest is its key."""
    return {key: str(val) for key, val in vars(ns).items()
            if key in KNOWN_KEYS and val is not None}


# ---------------------------------------------------------------------------
# bench


def _parse_resolutions(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        token = part.strip().lower()
        w, sep, h = token.partition("x")
        if not sep or not w.isdigit() or not h.isdigit():
            raise ConfigError(f"bad resolution {part!r}, expected WxH like 64x64")
        out.append((int(w), int(h)))
    return out


BENCH_MODES = TAYLOR_MODES + ("quadratic",)


def run_bench(resolutions: list[tuple[int, int]], channels: int,
              modes: list[str], repeats: int, seed: int,
              csv_path: str | None) -> dict[str, float]:
    """Time each mode across resolutions; returns fitted log-log slope per mode."""
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels}")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if len({w * h for w, h in resolutions}) < 2:
        raise ConfigError("need at least two distinct resolutions for a slope fit")
    if not modes:
        raise ConfigError("need at least one bench mode")
    for mode in modes:
        if mode not in BENCH_MODES:
            raise ConfigError(f"unknown bench mode {mode!r}, pick from {BENCH_MODES}")

    def timed_call(mode: str, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> float:
        start = time.perf_counter()
        if mode == "quadratic":
            taylor_attention_quadratic(q, k, v, mode="residual")
        else:
            taylor_linear_attention(Tensor(q), Tensor(k), Tensor(v), mode=mode)
        return time.perf_counter() - start

    rows: list[tuple[str, int, int, float, int]] = []
    slopes: dict[str, float] = {}
    for mode in modes:
        ns, ts = [], []
        for i, (w, h) in enumerate(sorted(resolutions, key=lambda r: r[0] * r[1])):
            n = w * h
            rng = make_rng(seed)
            q = rng.normal(size=(n, channels))
            k = rng.normal(size=(n, channels))
            v = rng.normal(size=(n, channels))
            if i == 0:
                # One untimed call at the smallest size so cold-start costs
                # (allocator, BLAS thread pool) stay out of the slope fit.
                timed_call(mode, q, k, v)
            median = float(np.median([timed_call(mode, q, k, v) for _ in range(repeats)]))
            macs = (quadratic_attention_macs(n, channels) if mode == "quadratic"
                    else linear_attention_macs(n, channels))
            rows.append((mode, n, channels, median, macs))
            ns.append(n)
            ts.append(median)
        slopes[mode] = float(np.polyfit(np.log(ns), np.log(ts), 1)[0])

    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write("mode,N,C,median_seconds,macs\n")
            for mode, n, c, median, macs in rows:
                fh.write(f"{mode},{n},{c},{median!r},{macs}\n")
    for mode in modes:
        print(f"{mode}: fitted log-log slope {slopes[mode]:.3f}")
    return slopes


def cmd_bench(ns: argparse.Namespace) -> int:
    resolutions = _parse_resolutions(ns.resolutions)
    modes = [m.strip() for m in ns.modes.split(",") if m.strip()]
    run_bench(resolutions, ns.channels, modes, ns.repeats, ns.seed, ns.csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# count


def cmd_count(ns: argparse.Namespace) -> int:
    run = load_run_config(ns.config, _flag_overrides(ns))
    report = cost_report(run.model, ns.height, ns.width)
    print(report.format_table())
    if ns.csv:
        report.to_csv(ns.csv)
    calib = calibrate_channels(sweep=ns.calibrate, template=run.model)
    print()
    for line in calib.format_lines():
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-toy


@dataclass
class TrainResult:
    csv_rows: list[str]
    masked_l1_first: float
    masked_l1_last: float
    psnr_baseline: float
    psnr_final: float


def _to_network(img01: np.ndarray) -> np.ndarray:
    return 2.0 * img01 - 1.0


def _to_unit(net: np.ndarray) -> np.ndarray:
    return np.clip((net + 1.0) / 2.0, 0.0, 1.0)


def paste_known_pixels(pred01: np.ndarray, img01: np.ndarray,
                       mask: np.ndarray) -> np.ndarray:
    """The [0, 1] prediction with the image's valid pixels copied over it, in place."""
    valid = mask[0] == 1.0
    pred01[:, valid] = img01[:, valid]
    return pred01


def _masked_l1(out01: np.ndarray, ref01: np.ndarray, mask: np.ndarray) -> float:
    missing = mask[0] == 0.0
    if not np.any(missing):
        return 0.0
    return float(np.mean(np.abs(out01 - ref01)[:, missing]))


def train_toy(run: RunConfig, img01: np.ndarray, mask: np.ndarray,
              csv_path: str | None, ckpt_path: str | None) -> TrainResult:
    """Alternating discriminator/generator steps overfitting one image.

    The ground-truth image is in [0, 1]; the network input is the [-1, 1]
    image with missing pixels zeroed. Loss rows are logged with repr floats
    so identically seeded runs produce byte-identical CSVs.
    """
    run.validate()
    _, h, w = img01.shape
    if h % 8 != 0 or w % 8 != 0:
        raise ConfigError(f"image dims must be divisible by 8, got {h}x{w}")
    if h < 32 or w < 32:
        raise ConfigError(f"discriminator needs at least 32x32 images, got {h}x{w}")
    if mask.shape != (1, h, w):
        raise ConfigError(f"mask shape {mask.shape} does not match image {img01.shape}")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ConfigError("mask entries must be exactly 0 or 1")

    rng = make_rng(run.seed)
    model = InpaintingUNet(run.model, rng)
    disc = PatchDiscriminator(rng, base_width=run.disc_width)
    fx = RandomConvFeatureExtractor()
    i_g = Tensor(_to_network(img01))
    feats_g = fx.features(i_g)   # constant: the ground truth never changes
    g_params = model.parameters()
    d_params = disc.parameters()

    i_m = Tensor(_to_network(img01) * mask)

    rows = ["iter,rec,perc,style,adv,total"]
    masked_first: float | None = None
    for step in range(run.iters):
        with Tape() as tg:
            i_out = model.forward(i_m)
            if step == 0:
                masked_first = _masked_l1(_to_unit(i_out.data), img01, mask)
            with Tape() as td:
                loss_d = discriminator_loss(disc, i_g, i_out.detach())
                td.backward(loss_d)
            adamw_step(d_params, run.lr, weight_decay=run.weight_decay)
            # The generator step needs no discriminator weight gradients.
            for p in d_params:
                p.requires_grad = False
            total, terms = total_loss(i_out, i_g, feats_g, fx, disc)
            for p in d_params:
                p.requires_grad = True
            tg.backward(total)
        adamw_step(g_params, run.lr, weight_decay=run.weight_decay)
        # No discriminator gradient is left to clear; perfbench's train64
        # workload hooks this call to mark the end of each iteration.
        zero_grads(d_params)
        rows.append(f"{step},{terms['rec'].item()!r},{terms['perc'].item()!r},"
                    f"{terms['style'].item()!r},{terms['adv'].item()!r},{total.item()!r}")

    final01 = _to_unit(model.forward(i_m).data)
    masked_last = _masked_l1(final01, img01, mask)
    # Zero-filled in network scale is 0.5 in [0, 1].
    baseline = paste_known_pixels(np.full_like(img01, 0.5), img01, mask)
    result = TrainResult(
        csv_rows=rows,
        masked_l1_first=masked_last if masked_first is None else masked_first,
        masked_l1_last=masked_last,
        psnr_baseline=psnr(ImagePair(img01, baseline)),
        psnr_final=psnr(ImagePair(img01, paste_known_pixels(final01, img01, mask))),
    )
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    if ckpt_path is not None:
        save_checkpoint(model, ckpt_path)
    return result


def cmd_train_toy(ns: argparse.Namespace) -> int:
    run = load_run_config(ns.config, _flag_overrides(ns))
    if run.image is None or run.mask is None:
        raise ConfigError("train-toy needs --image and --mask (or config keys)")
    img01 = read_image(run.image)
    mask = read_mask(run.mask)
    result = train_toy(run, img01, mask, ns.csv, run.checkpoint)
    print(f"masked L1: first {result.masked_l1_first:.6f} -> last "
          f"{result.masked_l1_last:.6f}")
    print(f"psnr: zero-filled baseline {result.psnr_baseline:.3f} dB -> "
          f"composited {result.psnr_final:.3f} dB")
    if run.checkpoint:
        print(f"checkpoint written to {run.checkpoint}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# inpaint


def cmd_inpaint(ns: argparse.Namespace) -> int:
    model = load_checkpoint(ns.checkpoint)
    img01 = read_image(ns.image)
    mask = read_mask(ns.mask)
    _, h, w = img01.shape
    if mask.shape != (1, h, w):
        raise ConfigError(f"mask shape {mask.shape} does not match image {img01.shape}")
    out = model.forward(Tensor(_to_network(img01) * mask))
    # Valid pixels pass through bit-exactly at the 8-bit boundary.
    write_image(ns.out, paste_known_pixels(_to_unit(out.data), img01, mask))
    print(f"wrote {ns.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_ops(seed: int) -> list[tuple[str, float]]:
    from .tensor import (absolute, conv2d, hadamard, layer_norm_sites, leaky_relu, matmul,
                         sigmoid, sum_all, tanh, transpose, upsample_conv2d)
    rng = make_rng(seed)
    results = []

    def unit(name, f, params):
        results.append((name, finite_diff_check(f, params, seed=seed)))

    a = Parameter(rng.normal(size=(3, 4)))
    b = Parameter(rng.normal(size=(4, 2)))
    r_ab = Tensor(rng.normal(size=(3, 2)))
    unit("matmul", lambda: sum_all(hadamard(matmul(a, b), r_ab)), [a, b])
    r_t = Tensor(rng.normal(size=(4, 3)))
    unit("transpose", lambda: sum_all(hadamard(transpose(a), r_t)), [a])

    x = Parameter(rng.normal(size=(2, 5, 5)))
    wc = Parameter(rng.normal(size=(3, 2, 3, 3)))
    bc = Parameter(rng.normal(size=(3,)))
    r_c = Tensor(rng.normal(size=(3, 3, 3)))
    unit("conv2d", lambda: sum_all(hadamard(conv2d(x, wc, bc, 2, 1), r_c)), [x, wc, bc])
    w1 = Parameter(rng.normal(size=(3, 2, 1, 1)))
    r_1 = Tensor(rng.normal(size=(3, 5, 5)))
    unit("conv2d_1x1", lambda: sum_all(hadamard(conv2d(x, w1, bc), r_1)), [x, w1, bc])
    w4 = Parameter(rng.normal(size=(3, 2, 4, 4)))
    r_4 = Tensor(rng.normal(size=(3, 2, 2)))
    unit("conv2d_k4s2", lambda: sum_all(hadamard(conv2d(x, w4, bc, 2, 1), r_4)), [x, w4, bc])

    p = Parameter(rng.normal(size=(10,)))
    r_p = Tensor(rng.normal(size=(10,)))
    unit("tanh", lambda: sum_all(hadamard(tanh(p), r_p)), [p])
    unit("sigmoid", lambda: sum_all(hadamard(sigmoid(p), r_p)), [p])
    unit("leaky_relu", lambda: sum_all(hadamard(leaky_relu(p), r_p)), [p])
    unit("absolute", lambda: sum_all(hadamard(absolute(p), r_p)), [p])

    xn = Parameter(rng.normal(size=(4, 3, 3)))
    gamma = Parameter(rng.normal(size=(4,)) + 1.0)
    beta = Parameter(rng.normal(size=(4,)))
    r_ln = Tensor(rng.normal(size=(4, 3, 3)))
    unit("layer_norm_sites",
         lambda: sum_all(hadamard(layer_norm_sites(xn, gamma, beta), r_ln)),
         [xn, gamma, beta])

    # The fused attention op: x and the six q/k/v projection parameters.
    xa = Parameter(rng.normal(size=(4, 3, 3)))
    proj = ProjectionSet.init(4, rng)
    r_xa = Tensor(rng.normal(size=(4, 3, 3)))
    cfg = AttentionConfig(channels=4, heads=2)
    unit("multi_head_attention",
         lambda: sum_all(hadamard(multi_head_attention(xa, proj, cfg), r_xa)),
         [xa, proj.wq, proj.bq, proj.wk, proj.bk, proj.wv, proj.bv])
    # The fused gate and output projection: a, x and the four parameters,
    # from a stream of their own, so the other units' inputs are unchanged.
    rng_g = make_rng(seed + 1)
    ag, xg = (Parameter(rng_g.normal(size=(4, 3, 4))) for _ in range(2))
    r_g = Tensor(rng_g.normal(size=(4, 3, 4)))
    pg = ProjectionSet.init(4, rng_g)
    pg.b_gate.data[:] = rng_g.normal(size=4)
    unit("gated_projection", lambda: sum_all(hadamard(gated_projection(ag, xg, pg), r_g)),
         [ag, xg, pg.w_gate, pg.b_gate, pg.w_out, pg.b_out])

    # The fused feed-forward op: x and all ten parameters.
    from .unet import FeedForward
    xf = Parameter(rng.normal(size=(4, 5, 5)))
    ffn = FeedForward(rng, 4, ModelConfig().ffn_hidden(4), "ffn")
    r_xf = Tensor(rng.normal(size=(4, 5, 5)))
    # Drawn last, so the other units' inputs are unchanged.
    r_up = Tensor(rng.normal(size=(3, 10, 10)))
    unit("upsample_conv2d",
         lambda: sum_all(hadamard(upsample_conv2d(x, wc, bc), r_up)), [x, wc, bc])
    # The decoder's skip fusion: the channel stack of x and a 3-channel map
    # through a 1x1 conv.
    skip = Parameter(rng.normal(size=(3, 5, 5)))
    w_fuse = Parameter(rng.normal(size=(3, 5, 1, 1)))
    unit("conv2d_parts",
         lambda: sum_all(hadamard(conv2d((x, skip), w_fuse, bc), r_1)),
         [x, skip, w_fuse, bc])
    unit("feed_forward", lambda: sum_all(hadamard(ffn(xf), r_xf)), [xf, *ffn.parameters()])
    return results


def _gradcheck_block(seed: int) -> float:
    from .tensor import hadamard, sum_all
    from .unet import TransformerBlock
    rng = make_rng(seed)
    cfg = ModelConfig(base_channels=4, block_counts=(1,) * 7, heads_per_level=(1,) * 7)
    block = TransformerBlock(make_rng(seed + 1), 4, 1, cfg, "blk")
    x = Tensor(rng.normal(size=(4, 8, 8)) * 0.5)
    r = Tensor(rng.normal(size=(4, 8, 8)))
    return finite_diff_check(lambda: sum_all(hadamard(block(x), r)),
                             block.parameters(), coords_per_param=4, seed=seed)


def _gradcheck_model(seed: int) -> float:
    from .tensor import hadamard, sum_all
    rng = make_rng(seed)
    cfg = ModelConfig(base_channels=4, block_counts=(1,) * 7, heads_per_level=(1,) * 7)
    model = InpaintingUNet(cfg, make_rng(seed + 1))
    im = Tensor(rng.uniform(-0.5, 0.5, size=(3, 16, 16)))
    r = Tensor(rng.normal(size=(3, 16, 16)))
    return finite_diff_check(
        lambda: sum_all(hadamard(model.forward(im), r)),
        model.parameters(), coords_per_param=2, seed=seed)


def run_gradcheck(scope: str, seed: int) -> tuple[bool, list[str]]:
    # (label, max relative error, tolerance as printed)
    checks: list[tuple[str, float, str]] = []
    if scope in ("ops", "all"):
        checks += [(f"op {name}", err, "1e-4") for name, err in _gradcheck_ops(seed)]
    if scope in ("block", "all"):
        checks.append(("block 4x8x8", _gradcheck_block(seed), "1e-3"))
    if scope in ("model", "all"):
        checks.append(("model 3x16x16", _gradcheck_model(seed), "1e-3"))
    passed = [err < float(tol) for _, err, tol in checks]
    lines = [f"{label}: max rel err {err:.3e} ({'pass' if ok else 'FAIL'} at {tol})"
             for (label, err, tol), ok in zip(checks, passed)]
    return all(passed), lines


def cmd_gradcheck(ns: argparse.Namespace) -> int:
    ok, lines = run_gradcheck(ns.scope, ns.seed)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_TESTFAIL


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors: exit 1, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _seed_arg(text: str) -> int:
    """A ``--seed`` value: the Philox generator takes only ints >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an int >= 0, got {text!r}")
    return int(text)


def _widths_arg(text: str) -> tuple[int, ...]:
    """A ``--calibrate`` value: comma-separated base widths, each >= 1."""
    widths = text.split(",")
    if not all(w.isdecimal() and int(w) >= 1 for w in widths):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated ints >= 1, got {text!r}")
    return tuple(int(w) for w in widths)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linpaint",
        description="Linear-attention inpainting: benchmarks, cost accounting, "
                    "toy training, inpainting, gradient checks.",
        epilog="Mask files are 8-bit PGM: white (255) = valid pixel, black (0) "
               "= missing pixel. Config files are key=value lines; unknown "
               "keys are rejected.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each verb registers only the flags it reads. A flag that sets a config
    # key has the key as its dest, so _flag_overrides finds it.
    def seed_flag(p, default):
        p.add_argument("--seed", type=_seed_arg, default=default, help="PRNG seed (Philox)")

    def model_flags(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--no-gate", dest="gated", action="store_const", const="false",
                       help="disable the attention gating mechanism")
        p.add_argument("--no-norm", dest="norm", action="store_const", const="none",
                       help="disable pre-sublayer normalization")

    p = sub.add_parser("bench", help="time attention modes across resolutions")
    seed_flag(p, 0)
    p.add_argument("--resolutions", default="32x32,64x64,128x128,256x256",
                   help="comma list of WxH sizes, N = W*H")
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--modes", default="residual,quadratic",
                   help=f"comma list from {BENCH_MODES}")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--csv", default=None, help="write timing rows to this CSV")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("count", help="parameter/MAC accounting and calibration")
    model_flags(p)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--calibrate", type=_widths_arg, default=(32, 40, 48, 64),
                   help="comma list of base widths to sweep")
    p.add_argument("--csv", default=None, help="write the per-layer report CSV here")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("train-toy", help="overfit the model on one image/mask pair")
    model_flags(p)
    p.add_argument("--mode", dest="taylor_mode", choices=TAYLOR_MODES, default=None,
                   help="taylor attention mode")
    seed_flag(p, None)
    p.add_argument("--image", default=None, help="PPM (P6) ground-truth image")
    p.add_argument("--mask", default=None, help="PGM (P5) mask, white=valid")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--csv", default=None, help="write per-iteration loss log here")
    p.add_argument("--checkpoint", default=None, help="write final weights here")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("inpaint", help="fill missing pixels using a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="PPM (P6) masked or full image")
    p.add_argument("--mask", required=True, help="PGM (P5) mask, white=valid")
    p.add_argument("--out", required=True, help="output PPM path")
    p.set_defaults(fn=cmd_inpaint)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    seed_flag(p, 0)
    p.add_argument("--scope", choices=("ops", "block", "model", "all"), default="all")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except (NetpbmError, CheckpointError, OSError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:   # ConfigError, ShapeError and any other bad value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
