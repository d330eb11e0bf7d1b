"""Analytic parameter and multiply-accumulate accounting for any model config.

The walk here is independent of the live model: it recomputes every layer's
parameter count and MAC count from the configuration alone, so tests can pin
it against the instantiated model's parameter census. MAC convention: one
multiply-accumulate in a convolution or matrix product; biases, activations
and normalizations cost zero.

Published reference point for the full-size model at 256x256: 14.8M
parameters and 51.3G MACs. The base channel width behind those figures is
not public, so :func:`calibrate_channels` sweeps candidate widths and
reports the gap instead of asserting equality.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .unet import IMAGE_CHANNELS, InpaintingUNet, ModelConfig

__all__ = [
    "REFERENCE_PARAMS",
    "REFERENCE_MACS",
    "REFERENCE_RESOLUTION",
    "CostLine",
    "CostReport",
    "conv_macs",
    "linear_attention_macs",
    "quadratic_attention_macs",
    "cost_report",
    "count_params",
    "analytic_param_count",
    "calibrate_channels",
]

REFERENCE_PARAMS = 14_800_000
REFERENCE_MACS = 51_300_000_000
REFERENCE_RESOLUTION = 256


@dataclass
class CostLine:
    name: str
    params: int
    macs: int


@dataclass
class CostReport:
    lines: list[CostLine]

    @property
    def total_params(self) -> int:
        return sum(line.params for line in self.lines)

    @property
    def total_macs(self) -> int:
        return sum(line.macs for line in self.lines)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "name", "params", "macs"])
            for i, line in enumerate(self.lines):
                writer.writerow([i, line.name, line.params, line.macs])
            writer.writerow([len(self.lines), "total", self.total_params, self.total_macs])

    def format_table(self) -> str:
        width = max(len(line.name) for line in self.lines + [CostLine("total", 0, 0)])
        rows = [f"{'name':<{width}}  {'params':>12}  {'macs':>16}"]
        for line in self.lines:
            rows.append(f"{line.name:<{width}}  {line.params:>12}  {line.macs:>16}")
        rows.append(f"{'total':<{width}}  {self.total_params:>12}  {self.total_macs:>16}")
        return "\n".join(rows)


def conv_macs(cin: int, cout: int, k: int, hout: int, wout: int) -> int:
    return cin * cout * k * k * hout * wout


def depthwise_macs(channels: int, k: int, hout: int, wout: int) -> int:
    return channels * k * k * hout * wout


def linear_attention_macs(n: int, head_dim: int) -> int:
    """Per-head cost of the reordered attention: K^T V and Q (K^T V), plus the
    length-d denominator products. Projections are counted as their convolutions."""
    return 2 * n * head_dim * head_dim + 2 * n * head_dim


def quadratic_attention_macs(n: int, head_dim: int) -> int:
    """Per-head cost of materializing the pairwise weights: Q K^T then W V."""
    return 2 * n * n * head_dim


def _block_lines(prefix: str, c: int, heads: int, n: int,
                 config: ModelConfig) -> list[CostLine]:
    hidden = config.ffn_hidden(c)
    lines: list[CostLine] = []
    use_norm = config.norm == "layer"
    if use_norm:
        lines.append(CostLine(f"{prefix}.norm1", 2 * c, 0))
    gate = ("w_gate",) if config.gated else ()
    for tag in ("wq", "wk", "wv", *gate, "w_out"):
        lines.append(CostLine(f"{prefix}.attn.{tag}", c * c + c, conv_macs(c, c, 1, 1, n)))
    d = c // heads
    lines.append(CostLine(f"{prefix}.attn.core", 0, heads * linear_attention_macs(n, d)))
    if use_norm:
        lines.append(CostLine(f"{prefix}.norm2", 2 * c, 0))
    lines.append(CostLine(f"{prefix}.ffn.conv_i", c * hidden + hidden,
                          conv_macs(c, hidden, 1, 1, n)))
    lines.append(CostLine(f"{prefix}.ffn.dw_i", 9 * hidden + hidden,
                          depthwise_macs(hidden, 3, 1, n)))
    lines.append(CostLine(f"{prefix}.ffn.conv_g", c * hidden + hidden,
                          conv_macs(c, hidden, 1, 1, n)))
    lines.append(CostLine(f"{prefix}.ffn.dw_g", 9 * hidden + hidden,
                          depthwise_macs(hidden, 3, 1, n)))
    lines.append(CostLine(f"{prefix}.ffn.conv_out", hidden * c + c,
                          conv_macs(hidden, c, 1, 1, n)))
    return lines


def cost_report(config: ModelConfig, h: int, w: int) -> CostReport:
    """Per-layer parameter and MAC accounting for one forward pass at h x w."""
    config.validate()
    if h % 8 != 0 or w % 8 != 0 or h < 8 or w < 8:
        raise ValueError(f"spatial dims must be positive multiples of 8, got {h}x{w}")
    c = config.base_channels
    lines = [CostLine("head", IMAGE_CHANNELS * c * 49 + c,
                      conv_macs(IMAGE_CHANNELS, c, 7, h, w))]
    for level in range(1, 5):
        ch = c * 2 ** (level - 1)
        hh, ww = h // 2 ** (level - 1), w // 2 ** (level - 1)
        heads = config.heads_per_level[level - 1]
        for b in range(config.block_counts[level - 1]):
            lines += _block_lines(f"enc{level}.block{b}", ch, heads, hh * ww, config)
        if level < 4:
            lines.append(CostLine(f"down{level}", 9 * ch * 2 * ch + 2 * ch,
                                  conv_macs(ch, 2 * ch, 3, hh // 2, ww // 2)))
    for idx, level in enumerate((3, 2, 1)):
        ch = c * 2 ** (level - 1)
        hh, ww = h // 2 ** (level - 1), w // 2 ** (level - 1)
        heads = config.heads_per_level[4 + idx]
        lines.append(CostLine(f"dec{level}.up", 9 * 2 * ch * ch + ch,
                              conv_macs(2 * ch, ch, 3, hh, ww)))
        lines.append(CostLine(f"dec{level}.fuse", 2 * ch * ch + ch,
                              conv_macs(2 * ch, ch, 1, hh, ww)))
        for b in range(config.block_counts[4 + idx]):
            lines += _block_lines(f"dec{level}.block{b}", ch, heads, hh * ww, config)
    lines.append(CostLine("tail", c * IMAGE_CHANNELS * 49 + IMAGE_CHANNELS,
                          conv_macs(c, IMAGE_CHANNELS, 7, h, w)))
    return CostReport(lines)


def analytic_param_count(config: ModelConfig) -> int:
    # Spatial size does not affect parameters; use the smallest lawful one.
    return cost_report(config, 8, 8).total_params


def count_params(model: InpaintingUNet) -> int:
    """Census of the live model: exact element count over trainable parameters."""
    return sum(p.size for p in model.parameters())


@dataclass
class CalibrationResult:
    best_channels: int
    params: int
    macs: int
    param_gap: float
    mac_gap: float
    table: list[tuple[int, int, int]]     # (channels, params, macs)

    def format_lines(self) -> list[str]:
        out = [f"reference: params {REFERENCE_PARAMS / 1e6:.1f}M, "
               f"macs {REFERENCE_MACS / 1e9:.1f}G at "
               f"{REFERENCE_RESOLUTION}x{REFERENCE_RESOLUTION} (generator only)"]
        for channels, params, macs in self.table:
            marker = " <- best" if channels == self.best_channels else ""
            out.append(f"  C={channels:<3d} params {params / 1e6:9.3f}M  "
                       f"macs {macs / 1e9:9.3f}G{marker}")
        out.append(f"best C={self.best_channels}: param gap {self.param_gap:+.1%}, "
                   f"mac gap {self.mac_gap:+.1%} vs reference")
        return out


def calibrate_channels(sweep: tuple[int, ...] = (32, 40, 48, 64),
                       template: ModelConfig | None = None) -> CalibrationResult:
    """Find the base width whose parameter count lands nearest the reference."""
    if not sweep:
        raise ValueError("sweep must not be empty")
    template = template if template is not None else ModelConfig()
    table = []
    for channels in sorted(sweep):
        cfg = ModelConfig(**{**template.__dict__, "base_channels": channels})
        report = cost_report(cfg, REFERENCE_RESOLUTION, REFERENCE_RESOLUTION)
        table.append((channels, report.total_params, report.total_macs))
    best = min(table, key=lambda row: abs(row[1] - REFERENCE_PARAMS))
    return CalibrationResult(
        best_channels=best[0],
        params=best[1],
        macs=best[2],
        param_gap=(best[1] - REFERENCE_PARAMS) / REFERENCE_PARAMS,
        mac_gap=(best[2] - REFERENCE_MACS) / REFERENCE_MACS,
        table=table,
    )
