import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from reference_ops import (
    depthwise_conv2d,
    div_broadcast,
    l2_normalize,
    nearest_upsample2x,
    sum_axis,
)

from linpaint import tensor as T
from linpaint.autograd import Parameter, zero_grads
from linpaint.tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    add,
    absolute,
    concat_channels,
    conv2d,
    gelu,
    hadamard,
    make_rng,
    matmul,
    reshape,
    scale,
    sub,
    sum_all,
    transpose,
    upsample_conv2d,
)


def arr(t):
    return t.data


def test_every_public_name_is_used_by_another_module():
    # The package holds only what it runs: a tensor op that only tests call
    # belongs in tests/reference_ops.py.
    package = Path(T.__file__).parent
    others = "\n".join(p.read_text() for p in package.glob("*.py") if p.name != "tensor.py")
    assert [name for name in T.__all__ if not re.search(rf"\b{name}\b", others)] == []


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(arr(matmul(eye, a)), a.data)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    assert np.array_equal(arr(matmul(a, b)), [[17.0], [39.0]])


def test_matmul_associativity():
    rng = make_rng(7)
    a = Tensor(rng.normal(size=(8, 4)))
    b = Tensor(rng.normal(size=(4, 8)))
    c = Tensor(rng.normal(size=(8, 5)))
    left = matmul(matmul(a, b), c).data
    right = matmul(a, matmul(b, c)).data
    assert np.max(np.abs(left - right)) <= 1e-12


def test_matmul_associativity_sweep():
    rng = make_rng(11)
    for _ in range(20):
        n, k, m, p = rng.integers(1, 17, size=4)
        a = Tensor(rng.normal(size=(n, k)))
        b = Tensor(rng.normal(size=(k, m)))
        c = Tensor(rng.normal(size=(m, p)))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        assert np.max(np.abs(left - right)) <= 1e-10


def test_matmul_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_batched_equals_per_entry_products():
    rng = make_rng(12)
    a = rng.normal(size=(3, 4, 5))
    b = rng.normal(size=(3, 5, 2))
    got = matmul(Tensor(a), Tensor(b)).data
    assert got.shape == (3, 4, 2)
    for i in range(3):
        assert np.array_equal(got[i], matmul(Tensor(a[i]), Tensor(b[i])).data)


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3, 4), (3, 4, 5)),     # batch sizes differ
    ((2, 3, 4), (4, 5)),        # ranks differ
    ((2, 2, 3, 4), (2, 2, 4, 5)),
])
def test_matmul_rejects_unshared_batch(a_shape, b_shape):
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


# ---------------------------------------------------------------------------
# transpose


def test_transpose_hand():
    assert np.array_equal(arr(transpose(Tensor([[1.0, 2.0], [3.0, 4.0]]))),
                          [[1.0, 3.0], [2.0, 4.0]])


def test_transpose_involution():
    a = Tensor(make_rng(0).normal(size=(3, 5)))
    assert np.array_equal(arr(transpose(transpose(a))), a.data)


def test_transpose_row_to_column():
    out = transpose(Tensor([[1.0, 2.0, 3.0]]))
    assert out.shape == (3, 1)


def test_transpose_batched_swaps_last_two_axes():
    a = make_rng(1).normal(size=(3, 2, 5))
    got = transpose(Tensor(a)).data
    assert got.flags["C_CONTIGUOUS"]
    assert np.array_equal(got, a.transpose(0, 2, 1))


def test_transpose_rejects_rank1_and_rank4():
    for shape in [(4,), (2, 2, 2, 2)]:
        with pytest.raises(ShapeError):
            transpose(Tensor(np.ones(shape)))


# ---------------------------------------------------------------------------
# l2_normalize


def test_l2_normalize_hand():
    out = l2_normalize(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)
    down = l2_normalize(Tensor([[3.0], [4.0]]), axis=0)
    assert np.allclose(down.data, [[0.6], [0.8]], atol=1e-15)


def test_l2_normalize_zero_row_guard():
    out = l2_normalize(Tensor([[0.0, 0.0], [3.0, 4.0]]), eps=1e-12)
    assert np.array_equal(out.data, [[0.0, 0.0], [0.6, 0.8]])
    assert not np.signbit(l2_normalize(Tensor([[-1e-13, 0.0]])).data).any()


def test_l2_normalize_middle_axis_equals_rows_of_transpose():
    # The (heads, d, N) stacks of multi-head attention normalize over d.
    a = make_rng(5).normal(size=(3, 4, 6))
    got = l2_normalize(Tensor(a), axis=1).data
    for h in range(3):
        rows = l2_normalize(Tensor(a[h].T)).data
        assert np.max(np.abs(got[h] - rows.T)) <= 1e-15


def test_l2_normalize_idempotent_on_unit_rows():
    rng = make_rng(4)
    a = rng.normal(size=(5, 7))
    unit = l2_normalize(Tensor(a))
    again = l2_normalize(unit)
    assert np.allclose(unit.data, again.data, atol=1e-12)
    norms = np.linalg.norm(again.data, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_1x1_identity():
    x = Tensor(make_rng(5).normal(size=(1, 4, 4)))
    w = Tensor(np.ones((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    assert np.allclose(conv2d(x, w, b).data, x.data, atol=0)


def test_conv2d_counting_ones():
    x = Tensor(np.ones((1, 4, 4)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b, stride=1, padding=1).data[0]
    assert out[1, 1] == 9.0 and out[1, 2] == 9.0
    assert out[0, 0] == 4.0 and out[3, 3] == 4.0
    assert out[0, 1] == 6.0


def test_conv2d_stride2_halves_256():
    x = Tensor(np.zeros((3, 256, 256)))
    w = Tensor(np.zeros((4, 3, 3, 3)))
    b = Tensor(np.zeros(4))
    assert conv2d(x, w, b, stride=2, padding=1).shape == (4, 128, 128)


def test_conv2d_linearity():
    rng = make_rng(6)
    x1 = Tensor(rng.normal(size=(2, 6, 6)))
    x2 = Tensor(rng.normal(size=(2, 6, 6)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    b0 = Tensor(np.zeros(3))
    y_sum = conv2d(add(x1, x2), w, b0, padding=1).data
    y_parts = conv2d(x1, w, b0, padding=1).data + conv2d(x2, w, b0, padding=1).data
    assert np.allclose(y_sum, y_parts, atol=1e-12)
    y_scaled = conv2d(scale(x1, 2.5), w, b0, padding=1).data
    assert np.allclose(y_scaled, 2.5 * conv2d(x1, w, b0, padding=1).data, atol=1e-12)


def test_conv2d_empty_output_rejected():
    x = Tensor(np.ones((1, 2, 2)))
    w = Tensor(np.ones((1, 1, 5, 5)))
    with pytest.raises(ShapeError):
        conv2d(x, w, Tensor(np.zeros(1)))


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 3, 1, 1))),
               Tensor(np.zeros(1)))


def reference_conv2d(x, w, b, stride, padding):
    """Plain nested-loop cross-correlation, independent of the library's conv code."""
    cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((cin, h + 2 * padding, wd + 2 * padding))
    xp[:, padding:padding + h, padding:padding + wd] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.empty((cout, ho, wo))
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                total = b[o]
                for c in range(cin):
                    for ki in range(k):
                        for kj in range(k):
                            total += w[o, c, ki, kj] * xp[c, i * stride + ki, j * stride + kj]
                out[o, i, j] = total
    return out


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


CONV_GEOMETRIES = [(k, s, p) for k in (1, 3, 4, 7) for s in (1, 2) for p in (0, 1, 3)]


@pytest.mark.parametrize("k,stride,padding", CONV_GEOMETRIES)
@pytest.mark.parametrize("cin,cout", [(3, 5), (10, 2)])
def test_conv2d_matches_nested_loop_oracle(k, stride, padding, cin, cout):
    rng = make_rng(100 * k + 10 * stride + padding)
    x = rng.normal(size=(cin, 11, 8))
    w = rng.normal(size=(cout, cin, k, k))
    b = rng.normal(size=cout)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    assert _rel_err(got, reference_conv2d(x, w, b, stride, padding)) <= 1e-12


@pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (4, 2, 1), (7, 1, 3)])
def test_conv2d_many_channel_blocks_match_oracle(k, stride, padding):
    # 37 input channels against a 9x12 map is several times the channel count
    # whose column block fits in the padded input, with a ragged last block.
    rng = make_rng(40 + k)
    x = rng.normal(size=(37, 9, 12))
    w = rng.normal(size=(4, 37, k, k))
    b = rng.normal(size=4)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    assert _rel_err(got, reference_conv2d(x, w, b, stride, padding)) <= 1e-12


@pytest.mark.parametrize("k,stride,padding", CONV_GEOMETRIES)
def test_depthwise_matches_nested_loop_oracle(k, stride, padding):
    rng = make_rng(200 + 100 * k + 10 * stride + padding)
    x = rng.normal(size=(4, 11, 8))
    w = rng.normal(size=(4, k, k))
    b = rng.normal(size=4)
    got = depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                           padding=padding).data
    want = np.concatenate([reference_conv2d(x[c:c + 1], w[c][None, None], b[c:c + 1],
                                            stride, padding) for c in range(4)])
    assert _rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (3, 2, 1), (4, 2, 0)])
def test_depthwise_channel_blocks_are_bit_identical(monkeypatch, k, stride, padding):
    # Blocks of one channel, of two with a ragged last block, and one block of
    # all seven sum each element's taps in the same order. A channel's wide
    # row holds (ho - 1) * (W + 2 * padding) + wo elements, ho x wo being the
    # size of the stride-1 map that the kernel computes at every stride.
    rng = make_rng(300 + k + stride)
    x = Parameter(rng.normal(size=(7, 10, 9)))
    w = Parameter(rng.normal(size=(7, k, k)))
    b = Parameter(rng.normal(size=7))
    runs = []
    for channels in (1, 2, 7):
        ho, wo = depthwise_conv2d(x, w, b, 1, padding).shape[1:]
        monkeypatch.setattr(T, "_DEPTHWISE_BLOCK",
                            channels * ((ho - 1) * (9 + 2 * padding) + wo))
        with Tape() as tape:
            out = depthwise_conv2d(x, w, b, stride, padding)
            tape.backward(sum_all(hadamard(out, out)))
        runs.append([out.data] + [p.grad for p in (x, w, b)])
        zero_grads([x, w, b])
    for blocked in runs[:2]:
        assert all(np.array_equal(got, want) for got, want in zip(blocked, runs[2]))


@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_many_channel_blocks_match_oracle(monkeypatch, stride):
    # A block of two channels' wide rows runs nine channels as four blocks of
    # two and a ragged last block of one. The kernel computes the stride-1
    # map, 10 x 13, at every stride.
    rng = make_rng(350 + stride)
    x = rng.normal(size=(9, 10, 13))
    w = rng.normal(size=(9, 3, 3))
    b = rng.normal(size=9)
    ho, wo = 10, 13
    monkeypatch.setattr(T, "_DEPTHWISE_BLOCK", 2 * ((ho - 1) * 15 + wo))
    got = depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=1).data
    want = np.concatenate([reference_conv2d(x[c:c + 1], w[c][None, None], b[c:c + 1],
                                            stride, 1) for c in range(9)])
    assert _rel_err(got, want) <= 1e-12


def test_conv2d_memory_is_bounded_by_input_and_output():
    # The tail conv's shape at 128x128: a k*k column matrix of the input would
    # be 49 times the input; the bound allows one padded-input-sized block.
    rng = make_rng(12)
    x = Tensor(rng.normal(size=(32, 128, 128)))
    w = Tensor(rng.normal(size=(3, 32, 7, 7)))
    b = Tensor(np.zeros(3))
    io_bytes = x.data.nbytes + 3 * 128 * 128 * 8
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = conv2d(x, w, b, stride=1, padding=3)
            held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (3, 128, 128)
    assert peak - before <= 3 * io_bytes
    assert held - before <= 1.5 * io_bytes


# ---------------------------------------------------------------------------
# depthwise_conv2d


def test_depthwise_identity_kernels():
    x = Tensor(make_rng(8).normal(size=(2, 5, 5)))
    ident = np.zeros((2, 3, 3))
    ident[:, 1, 1] = 1.0
    out = depthwise_conv2d(x, Tensor(ident), Tensor(np.zeros(2)), padding=1)
    assert np.allclose(out.data, x.data, atol=0)


def test_depthwise_equals_blockdiag_conv():
    # Independent oracle: a depthwise kernel embedded in a full conv kernel
    # that is zero across channels must give the same map.
    rng = make_rng(9)
    x = Tensor(rng.normal(size=(2, 6, 6)))
    wd = rng.normal(size=(2, 3, 3))
    bias = rng.normal(size=2)
    w_full = np.zeros((2, 2, 3, 3))
    w_full[0, 0] = wd[0]
    w_full[1, 1] = wd[1]
    got = depthwise_conv2d(x, Tensor(wd), Tensor(bias), stride=1, padding=1).data
    want = conv2d(x, Tensor(w_full), Tensor(bias), stride=1, padding=1).data
    assert np.allclose(got, want, atol=1e-12)


def test_depthwise_shape_preserved():
    x = Tensor(np.zeros((8, 16, 16)))
    out = depthwise_conv2d(x, Tensor(np.zeros((8, 3, 3))), Tensor(np.zeros(8)),
                           stride=1, padding=1)
    assert out.shape == (8, 16, 16)


# ---------------------------------------------------------------------------
# nearest_upsample2x


def test_upsample_hand():
    x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
    want = [[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]]
    assert np.array_equal(nearest_upsample2x(x).data, want)


def test_upsample_constant_stays_constant():
    out = nearest_upsample2x(Tensor(np.full((3, 2, 2), 7.25)))
    assert np.all(out.data == 7.25)


def test_upsample_then_stride2_sampling_is_identity():
    x = make_rng(10).normal(size=(2, 3, 5))
    up = nearest_upsample2x(Tensor(x)).data
    assert np.array_equal(up[:, ::2, ::2], x)


def test_upsample_preserves_channel_mean_exactly():
    # Every input value appears exactly four times, so the per-channel value
    # multiset (and with it the mean) is preserved exactly.
    x = make_rng(11).normal(size=(4, 6, 6))
    up = nearest_upsample2x(Tensor(x)).data
    for c in range(4):
        assert np.array_equal(np.sort(up[c].ravel()),
                              np.sort(np.repeat(x[c].ravel(), 4)))
    assert np.allclose(up.mean(axis=(1, 2)), x.mean(axis=(1, 2)), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# upsample_conv2d


@pytest.mark.parametrize("cin", [1, 3, 37])
@pytest.mark.parametrize("cout", [1, 5])
def test_upsample_conv2d_matches_conv_of_upsampled_map(cin, cout):
    # 37 input channels run as several channel blocks of the phase conv.
    rng = make_rng(400 + 10 * cin + cout)
    x = Tensor(rng.normal(size=(cin, 5, 7)))
    w = Tensor(rng.normal(size=(cout, cin, 3, 3)))
    b = Tensor(rng.normal(size=cout))
    got = upsample_conv2d(x, w, b).data
    want = conv2d(nearest_upsample2x(x), w, b, 1, 1).data
    assert got.shape == (cout, 10, 14)
    assert _rel_err(got, want) <= 1e-12


def test_upsample_conv2d_rejects_other_kernels():
    x = Tensor(np.zeros((2, 3, 3)))
    with pytest.raises(ShapeError):
        upsample_conv2d(x, Tensor(np.zeros((4, 2, 5, 5))), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        upsample_conv2d(x, Tensor(np.zeros((4, 2, 3, 3))), Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# gelu


def test_gelu_values():
    out = gelu(Tensor([0.0, 10.0, 1.0]))
    assert out.data[0] == 0.0
    assert abs(out.data[1] - 10.0) <= 1e-6
    assert abs(out.data[2] - 0.8413447460685429) <= 1e-9


def _erfc_cdf(x):
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])


def test_gauss_cdf_accuracy_against_erfc():
    # A dense grid over both tails and the clipped ends, plus the values the
    # gates mostly see.
    x = np.concatenate([np.linspace(-40.0, 40.0, 320_001),
                        make_rng(0).normal(0.0, 1.5, size=100_000)])
    got, want = T.gauss_cdf(x), _erfc_cdf(x)
    err = np.abs(got - want)
    assert err.max() <= 2.5e-16
    upper = x >= -8.0
    assert (err[upper] / want[upper]).max() <= 1e-11


def test_gauss_cdf_exact_values():
    assert T.gauss_cdf(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]
    high = np.concatenate([np.linspace(9.0, 40.0, 1001), [1e300, np.inf]])
    assert np.all(T.gauss_cdf(high) == 1.0)
    low = np.concatenate([np.linspace(-100.0, -40.0, 1001), [-1e300, -np.inf]])
    assert np.all(T.gauss_cdf(low) == 0.0)


def test_gauss_cdf_out_and_chunks_give_the_same_bits():
    x = make_rng(1).normal(0.0, 1.5, size=(3, 8192 + 77))
    full = T.gauss_cdf(x)
    out = np.empty_like(x)
    assert T.gauss_cdf(x, out=out) is out
    assert out.tobytes() == full.tobytes()
    strided = np.empty((x.shape[1], 3)).T
    T.gauss_cdf(x, out=strided)
    assert strided.tobytes() == full.tobytes()
    flat, flat_full = x.reshape(-1), full.reshape(-1)
    for a, b in [(0, 1), (5, 8197), (8191, 16385), (100, flat.size)]:
        assert T.gauss_cdf(flat[a:b]).tobytes() == flat_full[a:b].tobytes()


def test_gauss_cdf_nan_is_nan_without_warning():
    x = np.zeros(20_000)
    x[::7] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = T.gauss_cdf(x)
    assert np.array_equal(np.isnan(y), np.isnan(x))
    assert np.all(y[~np.isnan(x)] == 0.5)


# ---------------------------------------------------------------------------
# elementwise / structural


def test_hadamard_with_ones_and_commutativity():
    rng = make_rng(12)
    a = Tensor(rng.normal(size=(3, 4)))
    ones = Tensor(np.ones((3, 4)))
    assert np.array_equal(hadamard(a, ones).data, a.data)
    b = Tensor(rng.normal(size=(3, 4)))
    assert np.array_equal(hadamard(a, b).data, hadamard(b, a).data)


def test_concat_channels_shapes():
    a = Tensor(np.zeros((2, 4, 4)))
    b = Tensor(np.ones((3, 4, 4)))
    out = concat_channels(a, b)
    assert out.shape == (5, 4, 4)
    assert np.all(out.data[:2] == 0) and np.all(out.data[2:] == 1)


def test_concat_channels_spatial_mismatch():
    with pytest.raises(ShapeError):
        concat_channels(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((2, 5, 4))))


def test_reshape_is_a_view_in_row_major_order():
    a = Tensor(make_rng(14).normal(size=(6, 2, 5)))
    out = reshape(a, (3, 2, 10))
    assert np.shares_memory(out.data, a.data)
    assert np.array_equal(out.data, a.data.reshape(3, 2, 10))
    with pytest.raises(ShapeError):
        reshape(a, (7, 9))


def test_sum_axis_keeps_the_summed_axis():
    a = make_rng(15).normal(size=(2, 3, 4))
    for axis in range(3):
        out = sum_axis(Tensor(a), axis).data
        assert np.array_equal(out, a.sum(axis=axis, keepdims=True))


def test_div_broadcast_shapes():
    a = Tensor(np.full((2, 3, 4), 6.0))
    assert np.array_equal(div_broadcast(a, Tensor(np.full((2, 1, 4), 2.0))).data,
                          np.full((2, 3, 4), 3.0))
    for bad in [(2, 2, 4), (3, 4), (2, 1, 4, 1)]:
        with pytest.raises(ShapeError):
            div_broadcast(a, Tensor(np.ones(bad)))


def test_add_sub_shape_mismatch():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        sub(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_ops_leave_inputs_unmodified():
    rng = make_rng(13)
    a = Tensor(rng.normal(size=(4, 4)))
    b = Tensor(rng.normal(size=(4, 4)))
    a_before, b_before = a.data.copy(), b.data.copy()
    matmul(a, b)
    add(a, b)
    hadamard(a, b)
    l2_normalize(a)
    transpose(a)
    div_broadcast(a, Tensor(np.full((4, 1), 2.0)))
    sum_axis(a, 0)
    absolute(a)
    assert np.array_equal(a.data, a_before)
    assert np.array_equal(b.data, b_before)


def test_nonfinite_output_raises():
    bad = Tensor(np.zeros(3))
    bad.data[0] = np.inf  # simulate upstream corruption
    with pytest.raises(NonFiniteError):
        add(bad, Tensor(np.zeros(3)))


def test_zero_dim_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((0, 2)))
