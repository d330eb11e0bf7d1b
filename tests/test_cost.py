import pytest

from linpaint.cost import (
    REFERENCE_MACS,
    REFERENCE_PARAMS,
    analytic_param_count,
    calibrate_channels,
    conv_macs,
    cost_report,
    count_macs,
    count_params,
    linear_attention_macs,
    quadratic_attention_macs,
)
from linpaint.tensor import make_rng
from linpaint.unet import InpaintingUNet, ModelConfig


def cfg(**kw):
    base = dict(base_channels=2, block_counts=(1,) * 7, heads_per_level=(1,) * 7)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# params


def test_single_1x1_conv_param_formula():
    # 2->3 with bias: 2*3 + 3 = 9, as one line of any report.
    report = cost_report(cfg(), 8, 8)
    fuse = next(line for line in report.lines if line.name == "dec1.fuse")
    assert fuse.params == 4 * 2 + 2  # 1x1 conv 2C->C at C=2


def test_head_conv_param_formula():
    report = cost_report(cfg(base_channels=32), 8, 8)
    head = next(line for line in report.lines if line.name == "head")
    assert head.params == 3 * 32 * 49 + 32 == 4736


def test_hand_computed_toy_config_total():
    # C=2, one block in encoder stage 1 only, layer norm, expansion 2.
    config = cfg(block_counts=(1, 0, 0, 0, 0, 0, 0))
    expected = (
        (3 * 2 * 49 + 2)                      # head 7x7 3->2
        + (2 * 2)                             # block norm1
        + 5 * (2 * 2 + 2)                     # five 1x1 attention convs 2->2
        + (2 * 2)                             # block norm2
        + (2 * 4 + 4) + (9 * 4 + 4)           # ffn conv_i 2->4, dw_i on 4
        + (2 * 4 + 4) + (9 * 4 + 4)           # ffn conv_g, dw_g
        + (4 * 2 + 2)                         # ffn conv_out 4->2
        + (9 * 2 * 4 + 4)                     # down1 3x3 2->4
        + (9 * 4 * 8 + 8)                     # down2 3x3 4->8
        + (9 * 8 * 16 + 16)                   # down3 3x3 8->16
        + (9 * 16 * 8 + 8) + (16 * 8 + 8)     # dec3 up + fuse
        + (9 * 8 * 4 + 4) + (8 * 4 + 4)       # dec2 up + fuse
        + (9 * 4 * 2 + 2) + (4 * 2 + 2)       # dec1 up + fuse
        + (2 * 3 * 49 + 3)                    # tail 7x7 2->3
    )
    assert expected == 3993
    assert analytic_param_count(config) == expected
    model = InpaintingUNet(config, make_rng(0))
    assert count_params(model) == expected


@pytest.mark.parametrize("config", [
    cfg(),
    cfg(base_channels=3, block_counts=(2, 1, 0, 1, 0, 1, 2)),
    cfg(base_channels=4, heads_per_level=(1, 2, 4, 8, 4, 2, 1)),
    cfg(base_channels=2, norm="none"),
    cfg(base_channels=2, ffn_expansion=1.5),
    cfg(base_channels=5, block_counts=(1, 1, 2, 2, 1, 1, 1), gated=False),
])
def test_analytic_count_equals_census(config):
    model = InpaintingUNet(config, make_rng(1))
    assert analytic_param_count(config) == count_params(model)


def test_ungated_model_has_no_gate_parameters():
    config = ModelConfig(base_channels=4, gated=False)
    model = InpaintingUNet(config, make_rng(2))
    assert not [p.name for p in model.parameters() if ".w_gate." in p.name]
    assert analytic_param_count(config) == count_params(model) == 87255


def test_params_independent_of_resolution():
    config = cfg()
    assert cost_report(config, 16, 16).total_params == cost_report(config, 64, 64).total_params


# ---------------------------------------------------------------------------
# macs


def test_conv_macs_formula():
    assert conv_macs(2, 3, 1, 4, 4) == 96


def test_linear_attention_macs_formula():
    assert linear_attention_macs(16, 4) == 2 * 16 * 16 + 2 * 16 * 4 == 640


def test_quadratic_dominates_linear():
    n, c = 4096, 64
    assert quadratic_attention_macs(n, c) > 10 * linear_attention_macs(n, c)


def test_macs_scale_linearly_with_area():
    config = cfg(base_channels=4)
    assert count_macs(config, 64, 64) == 4 * count_macs(config, 32, 32)
    assert count_macs(config, 128, 128) == 16 * count_macs(config, 32, 32)


def test_norm_and_activation_cost_nothing():
    with_norm = count_macs(cfg(norm="layer"), 32, 32)
    without = count_macs(cfg(norm="none"), 32, 32)
    assert with_norm == without


def test_report_csv_and_table(tmp_path):
    report = cost_report(cfg(), 16, 16)
    table = report.format_table()
    assert "total" in table and "head" in table
    path = str(tmp_path / "cost.csv")
    report.to_csv(path)
    rows = open(path).read().strip().splitlines()
    assert rows[0] == "layer,name,params,macs"
    assert rows[-1].split(",")[1] == "total"
    assert len(rows) == len(report.lines) + 2


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_singleton_sweep():
    result = calibrate_channels(sweep=(8,), template=cfg())
    assert result.best_channels == 8
    assert result.params == analytic_param_count(cfg(base_channels=8))


def test_params_monotone_in_width():
    counts = [analytic_param_count(cfg(base_channels=c)) for c in (2, 4, 8, 16)]
    assert counts == sorted(counts) and len(set(counts)) == 4


def test_calibrate_default_sweep_reports_gap():
    result = calibrate_channels()     # default template, default 32..64 sweep
    assert result.best_channels in (32, 40, 48, 64)
    assert len(result.table) == 4
    assert result.param_gap == (result.params - REFERENCE_PARAMS) / REFERENCE_PARAMS
    lines = result.format_lines()
    assert any("14.8M" in line for line in lines)
    assert any("51.3G" in line for line in lines)
    assert any("best C=" in line for line in lines)
    assert REFERENCE_MACS == 51_300_000_000


def test_calibrate_empty_sweep_rejected():
    with pytest.raises(ValueError):
        calibrate_channels(sweep=())
