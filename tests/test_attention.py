import math
import tracemalloc

import numpy as np
import pytest
from conftest import reference_softmax, reference_taylor
from reference_ops import div_broadcast, guard_denominator, l2_normalize, sum_axis

from linpaint.attention import (
    AttentionConfig,
    ProjectionSet,
    gated_attention,
    multi_head_attention,
    taylor_attention_quadratic,
    taylor_linear_attention,
    vanilla_attention,
)
from linpaint.autograd import Parameter, finite_diff_check
from linpaint.tensor import (
    ShapeError,
    Tape,
    Tensor,
    add,
    conv2d,
    hadamard,
    make_rng,
    matmul,
    reshape,
    sum_all,
    transpose,
)


# ---------------------------------------------------------------------------
# vanilla attention


def test_vanilla_single_row_returns_value():
    rng = make_rng(0)
    q = Tensor(rng.normal(size=(1, 4)))
    k = Tensor(rng.normal(size=(1, 4)))
    v = Tensor(rng.normal(size=(1, 4)))
    assert np.allclose(vanilla_attention(q, k, v).data, v.data, atol=1e-15)


def test_vanilla_zero_query_gives_column_mean():
    rng = make_rng(1)
    k = Tensor(rng.normal(size=(5, 3)))
    v = Tensor(rng.normal(size=(5, 3)))
    out = vanilla_attention(Tensor(np.zeros((5, 3))), k, v).data
    assert np.allclose(out, np.tile(v.data.mean(axis=0), (5, 1)), atol=1e-12)


def test_vanilla_matches_scalar_loop():
    rng = make_rng(2)
    q = rng.normal(size=(3, 2))
    k = rng.normal(size=(3, 2))
    v = rng.normal(size=(3, 2))
    got = vanilla_attention(Tensor(q), Tensor(k), Tensor(v)).data
    assert np.max(np.abs(got - reference_softmax(q, k, v))) <= 1e-12


def test_vanilla_shape_mismatch():
    with pytest.raises(ShapeError):
        vanilla_attention(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))),
                          Tensor(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# taylor linear attention


def test_taylor_sum_zero_query_equals_vanilla():
    rng = make_rng(3)
    k = rng.normal(size=(6, 4))
    v = rng.normal(size=(6, 4))
    q0 = np.zeros((6, 4))
    lin = taylor_linear_attention(Tensor(q0), Tensor(k), Tensor(v), mode="sum").data
    van = vanilla_attention(Tensor(q0), Tensor(k), Tensor(v)).data
    assert np.allclose(lin, van, atol=1e-12)
    assert np.allclose(lin, np.tile(v.mean(axis=0), (6, 1)), atol=1e-12)


def test_taylor_residual_zero_query():
    rng = make_rng(4)
    k = rng.normal(size=(5, 3))
    v = rng.normal(size=(5, 3))
    out = taylor_linear_attention(Tensor(np.zeros((5, 3))), Tensor(k), Tensor(v),
                                  mode="residual").data
    assert np.allclose(out, v / 5.0, atol=1e-12)


@pytest.mark.parametrize("mode", ["sum", "residual", "none"])
@pytest.mark.parametrize("normalize_qk", [True, False])
@pytest.mark.parametrize("divide", [True, False])
def test_taylor_matches_quadratic_oracle(mode, normalize_qk, divide):
    rng = make_rng(5)
    for n, c in [(8, 4), (16, 8), (32, 4)]:
        q = rng.normal(size=(n, c))
        k = rng.normal(size=(n, c))
        v = rng.normal(size=(n, c))
        got = taylor_linear_attention(Tensor(q), Tensor(k), Tensor(v), mode=mode,
                                      normalize_qk=normalize_qk, divide=divide).data
        want = reference_taylor(q, k, v, mode, normalize_qk=normalize_qk, divide=divide)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_quadratic_helper_agrees_with_linear_path():
    # The shipped benchmarking reference must compute the same map, including
    # when evaluated in row chunks.
    rng = make_rng(6)
    q = rng.normal(size=(30, 5))
    k = rng.normal(size=(30, 5))
    v = rng.normal(size=(30, 5))
    for mode in ("sum", "residual", "none"):
        lin = taylor_linear_attention(Tensor(q), Tensor(k), Tensor(v), mode=mode).data
        quad = taylor_attention_quadratic(q, k, v, mode=mode, row_chunk=7)
        assert np.max(np.abs(lin - quad)) <= 1e-10


def test_taylor_softmax_limit_second_order():
    # Unit q/k rows with the pairwise logits scaled by s: the remaining error
    # against exact softmax attention is the second-order expansion remainder.
    rng = make_rng(7)
    n, c = 32, 8
    qh = rng.normal(size=(n, c))
    qh /= np.linalg.norm(qh, axis=1, keepdims=True)
    kh = rng.normal(size=(n, c))
    kh /= np.linalg.norm(kh, axis=1, keepdims=True)
    v = rng.normal(size=(n, c))
    scales = [0.2, 0.1, 0.05, 0.025]
    errs = []
    for s in scales:
        f = math.sqrt(s)
        soft = vanilla_attention(Tensor(f * qh), Tensor(f * kh), Tensor(v),
                                 scaled=False).data
        lin = taylor_linear_attention(Tensor(f * qh), Tensor(f * kh), Tensor(v),
                                      mode="sum", normalize_qk=False).data
        errs.append(np.max(np.abs(soft - lin)))
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert 1.7 <= slope <= 2.3


@pytest.mark.parametrize("mode", ["sum", "residual", "none"])
def test_taylor_permutation_equivariance(mode):
    rng = make_rng(8)
    n, c = 12, 4
    q = rng.normal(size=(n, c))
    k = rng.normal(size=(n, c))
    v = rng.normal(size=(n, c))
    perm = rng.permutation(n)
    base = taylor_linear_attention(Tensor(q), Tensor(k), Tensor(v), mode=mode).data
    permuted = taylor_linear_attention(Tensor(q[perm]), Tensor(k[perm]),
                                       Tensor(v[perm]), mode=mode).data
    assert np.allclose(permuted, base[perm], atol=1e-12)


def test_taylor_denominator_guard_adversarial():
    # All keys exactly opposite one query row drives the denominator to zero.
    rng = make_rng(9)
    q = rng.normal(size=(4, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    k = np.tile(-q[0], (4, 1))
    v = rng.normal(size=(4, 3))
    out = taylor_linear_attention(Tensor(q), Tensor(k), Tensor(v), mode="residual").data
    assert np.all(np.isfinite(out))


def test_taylor_mode_validation():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        taylor_linear_attention(t, t, t, mode="bogus")


def test_taylor_gradient_matches_finite_differences():
    rng = make_rng(10)
    q = Parameter(rng.normal(size=(6, 4)))
    k = Parameter(rng.normal(size=(6, 4)))
    v = Parameter(rng.normal(size=(6, 4)))
    r = Tensor(rng.normal(size=(6, 4)))

    def f():
        out = taylor_linear_attention(q, k, v, mode="residual")
        return sum_all(hadamard(out, r))

    assert finite_diff_check(f, [q, k, v]) < 1e-4


# ---------------------------------------------------------------------------
# multi-head


def test_multi_head_single_head_equals_flat():
    rng = make_rng(11)
    cfg = AttentionConfig(channels=6, heads=1, gated=False)
    proj = ProjectionSet.init(6, rng)
    x = Tensor(rng.normal(size=(6, 4, 4)))
    out = multi_head_attention(x, proj, cfg)

    from linpaint.tensor import conv2d, reshape, transpose

    def tokens(t):
        return transpose(reshape(t, (6, 16)))          # (H*W) x C

    q, k, v = (tokens(conv2d(x, w, b)) for w, b in
               ((proj.wq, proj.bq), (proj.wk, proj.bk), (proj.wv, proj.bv)))
    flat = taylor_linear_attention(q, k, v, mode=cfg.taylor_mode, eps=cfg.eps)
    assert np.allclose(tokens(out).data, flat.data, atol=1e-14)


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
@pytest.mark.parametrize("mode", ["sum", "residual", "none"])
@pytest.mark.parametrize("divide", [True, False])
@pytest.mark.parametrize("normalize_qk", [True, False])
def test_multi_head_matches_per_head_loop(heads, mode, divide, normalize_qk):
    # The batched heads against one taylor_linear_attention call per head on
    # that head's channels of the projections.
    rng = make_rng(20 + heads)
    cfg = AttentionConfig(channels=16, heads=heads, taylor_mode=mode, gated=False,
                          normalize_qk=normalize_qk, divide=divide)
    proj = ProjectionSet.init(16, rng)
    x = Tensor(rng.normal(size=(16, 5, 6)))
    got = multi_head_attention(x, proj, cfg).data.reshape(16, 30)

    def tokens(w, b):
        return w.data.reshape(16, 16) @ x.data.reshape(16, 30) + b.data[:, None]

    q, k, v = (tokens(w, b) for w, b in
               ((proj.wq, proj.bq), (proj.wk, proj.bk), (proj.wv, proj.bv)))
    d = cfg.head_dim
    for h in range(heads):
        rows = slice(h * d, (h + 1) * d)
        want = taylor_linear_attention(
            Tensor(q[rows].T), Tensor(k[rows].T), Tensor(v[rows].T), mode=mode,
            eps=cfg.eps, normalize_qk=normalize_qk, divide=divide).data
        assert np.max(np.abs(got[rows] - want.T)) <= 1e-12


def _composed_multi_head(x, proj, cfg):
    """multi_head_attention as a composition of generic taped ops, one per
    step of the map: the reference the fused op is held to."""
    _, h, w = x.shape
    heads, n = cfg.heads, h * w
    stack = (heads, cfg.head_dim, n)
    q, k, v = (reshape(conv2d(x, wt, b), stack) for wt, b in
               ((proj.wq, proj.bq), (proj.wk, proj.bk), (proj.wv, proj.bv)))
    qb = l2_normalize(q, axis=1) if cfg.normalize_qk else q
    kb = l2_normalize(k, axis=1) if cfg.normalize_qk else k
    q_kv = matmul(matmul(v, transpose(kb)), qb)
    if cfg.taylor_mode == "residual":
        out = add(v, q_kv)
    elif cfg.taylor_mode == "sum":
        out = add(matmul(sum_axis(v, 2), Tensor(np.ones((heads, 1, n)))), q_kv)
    else:
        out = q_kv
    if cfg.divide:
        denom = add(matmul(transpose(sum_axis(kb, 2)), qb),
                    Tensor(np.full((heads, 1, n), float(n))))
        out = div_broadcast(out, guard_denominator(denom, cfg.eps))
    return reshape(out, x.shape)


def _attention_case(seed, channels, heads, shape=(5, 6), **cfg_kwargs):
    rng = make_rng(seed)
    cfg = AttentionConfig(channels=channels, heads=heads, **cfg_kwargs)
    proj = ProjectionSet.init(channels, rng)
    for b in (proj.bq, proj.bk, proj.bv):
        b.data[:] = rng.normal(size=channels)
    x = Parameter(rng.normal(size=(channels, *shape)))
    r = Tensor(rng.normal(size=(channels, *shape)))
    return cfg, proj, x, r


def _assert_fused_matches_composed(cfg, proj, x, r):
    params = [x, proj.wq, proj.bq, proj.wk, proj.bk, proj.wv, proj.bv]
    results = []
    for attend in (multi_head_attention, _composed_multi_head):
        with Tape() as tape:
            out = attend(x, proj, cfg)
            tape.backward(sum_all(hadamard(out, r)))
        results.append((out.data, [p.grad for p in params]))
        for p in params:
            p.grad = None
    (got, got_grads), (want, want_grads) = results
    assert np.max(np.abs(got - want)) <= 1e-12
    for p, g, w in zip(params, got_grads, want_grads):
        assert g.shape == w.shape, p.name
        assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w)), p.name


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
@pytest.mark.parametrize("mode", ["sum", "residual", "none"])
@pytest.mark.parametrize("divide", [True, False])
@pytest.mark.parametrize("normalize_qk", [True, False])
def test_multi_head_matches_composed_ops(heads, mode, divide, normalize_qk):
    _assert_fused_matches_composed(*_attention_case(
        30 + heads, 16, heads, taylor_mode=mode, divide=divide, normalize_qk=normalize_qk))


def test_multi_head_dead_query_column_matches_composed_ops():
    # A zero input site with a zero query bias leaves that query column all
    # zero, so its normalization has no direction and passes no gradient.
    cfg, proj, x, r = _attention_case(41, 8, 2)
    x.data[:, 2, 3] = 0.0
    proj.bq.data[:] = 0.0
    q = proj.wq.data.reshape(8, 8) @ x.data.reshape(8, 30)
    assert np.count_nonzero(np.all(q == 0.0, axis=0)) == 1
    _assert_fused_matches_composed(cfg, proj, x, r)


def test_multi_head_clamped_denominator_matches_composed_ops():
    # Without normalization the denominators N + s.q spread widely; an eps
    # between two of them clamps about half, away from any sign ambiguity.
    cfg, proj, x, r = _attention_case(42, 8, 2, normalize_qk=False)
    q, k = ((wt.data.reshape(8, 8) @ x.data.reshape(8, 30) + b.data[:, None]).reshape(2, 4, 30)
            for wt, b in ((proj.wq, proj.bq), (proj.wk, proj.bk)))
    denom = np.abs(30.0 + np.einsum("hd,hdn->hn", k.sum(axis=2), q)).ravel()
    ranked = np.sort(denom)
    cfg.eps = float(ranked[29] + ranked[30]) / 2.0
    assert ranked[30] - ranked[29] > 1e-6 * ranked[30]
    _assert_fused_matches_composed(cfg, proj, x, r)


def test_multi_head_records_one_tape_step():
    cfg, proj, x, _ = _attention_case(43, 8, 2)
    with Tape() as tape:
        multi_head_attention(x, proj, cfg)
    assert len(tape) == 1


def test_multi_head_frozen_projections_get_no_gradient():
    cfg, proj, x, r = _attention_case(44, 8, 2)
    qkv = [proj.wq, proj.bq, proj.wk, proj.bk, proj.wv, proj.bv]
    grads = []
    for frozen in (False, True):
        for p in qkv:
            p.requires_grad = not frozen
        with Tape() as tape:
            tape.backward(sum_all(hadamard(multi_head_attention(x, proj, cfg), r)))
        grads.append(x.grad)
        assert all((p.grad is None) == frozen for p in qkv)
        for p in [x] + qkv:
            p.grad = None
    assert np.array_equal(grads[0], grads[1])


@pytest.mark.parametrize("mode", ["sum", "residual", "none"])
def test_multi_head_tape_length_is_independent_of_heads(mode):
    rng = make_rng(24)
    proj = ProjectionSet.init(8, rng)
    x = Tensor(rng.normal(size=(8, 4, 4)))
    lengths = set()
    for heads in (1, 2, 4, 8):
        with Tape() as tape:
            multi_head_attention(x, proj, AttentionConfig(channels=8, heads=heads,
                                                          taylor_mode=mode))
        lengths.add(len(tape))
    assert len(lengths) == 1


def test_multi_head_heads_are_independent():
    # Zeroing the projections that feed head 1 must not change head 0's output
    # channels.
    rng = make_rng(12)
    cfg = AttentionConfig(channels=8, heads=2, gated=False)
    proj = ProjectionSet.init(8, rng)
    x = Tensor(rng.normal(size=(8, 4, 4)))
    before = multi_head_attention(x, proj, cfg).data.copy()
    for w, b in [(proj.wq, proj.bq), (proj.wk, proj.bk), (proj.wv, proj.bv)]:
        w.data[4:] = 0.0
        b.data[4:] = 0.0
    after = multi_head_attention(x, proj, cfg).data
    assert np.allclose(before[:4], after[:4], atol=1e-14)
    assert not np.allclose(before[4:], after[4:], atol=1e-8)


def test_multi_head_shape_roundtrip():
    rng = make_rng(13)
    cfg = AttentionConfig(channels=8, heads=4)
    proj = ProjectionSet.init(8, rng)
    out = multi_head_attention(Tensor(rng.normal(size=(8, 16, 16))), proj, cfg)
    assert out.shape == (8, 16, 16)


def test_head_divisibility_enforced():
    with pytest.raises(ValueError):
        AttentionConfig(channels=8, heads=3).validate()


# ---------------------------------------------------------------------------
# gating


def _solve_gelu_equals_one():
    # Bisection on x*Phi(x) = 1; independent of the library's gelu kernel.
    lo, hi = 0.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = mid * 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0)))
        if val < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gate_off_reduces_to_projected_attention():
    rng = make_rng(14)
    proj = ProjectionSet.init(4, rng)
    x = Tensor(rng.normal(size=(4, 3, 3)))
    ungated = gated_attention(x, proj, AttentionConfig(channels=4, gated=False))

    from linpaint.tensor import conv2d
    manual = conv2d(multi_head_attention(x, proj, AttentionConfig(channels=4, gated=False)),
                    proj.w_out, proj.b_out)
    assert np.allclose(ungated.data, manual.data, atol=1e-14)


def test_gate_bias_one_matches_ungated():
    z_star = _solve_gelu_equals_one()
    assert abs(z_star - 1.1447) < 1e-3
    rng = make_rng(15)
    proj = ProjectionSet.init(4, rng)
    proj.w_gate.data[:] = 0.0
    proj.b_gate.data[:] = z_star
    x = Tensor(rng.normal(size=(4, 3, 3)))
    gated = gated_attention(x, proj, AttentionConfig(channels=4, gated=True)).data
    plain = gated_attention(x, proj, AttentionConfig(channels=4, gated=False)).data
    assert np.max(np.abs(gated - plain)) <= 1e-10


def test_gate_zero_annihilates():
    rng = make_rng(16)
    proj = ProjectionSet.init(4, rng)
    proj.w_gate.data[:] = 0.0
    proj.b_gate.data[:] = 0.0
    proj.b_out.data[:] = 0.0
    x = Tensor(rng.normal(size=(4, 3, 3)))
    out = gated_attention(x, proj, AttentionConfig(channels=4, gated=True)).data
    assert np.max(np.abs(out)) == 0.0


def test_ablation_axes_are_live():
    # The mode and gating toggles must actually change the output map.
    rng = make_rng(17)
    proj = ProjectionSet.init(8, rng)
    x = Tensor(rng.normal(size=(8, 6, 6)))
    outs = {}
    for mode in ("residual", "none"):
        for gated in (True, False):
            cfg = AttentionConfig(channels=8, heads=2, taylor_mode=mode, gated=gated)
            outs[(mode, gated)] = gated_attention(x, proj, cfg).data
    assert np.max(np.abs(outs[("residual", True)] - outs[("none", True)])) > 1e-6
    assert np.max(np.abs(outs[("residual", True)] - outs[("residual", False)])) > 1e-6
    assert np.max(np.abs(outs[("none", True)] - outs[("none", False)])) > 1e-6


def test_gated_attention_backward_frees_as_it_replays():
    # The reverse pass frees each intermediate, its captured arrays and its
    # gradient once it has passed them: it peaks near what the forward held,
    # and afterwards little more than the leaves' gradients is left.
    rng = make_rng(40)
    proj = ProjectionSet.init(16, rng)
    cfg = AttentionConfig(channels=16, heads=2, taylor_mode="residual")
    x = Parameter(rng.normal(size=(16, 64, 64)))
    r = Tensor(rng.normal(size=(16, 64, 64)))
    tracemalloc.start()
    try:
        with Tape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            loss = sum_all(hadamard(gated_attention(x, proj, cfg), r))
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.backward(loss)
            after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grad_bytes = sum(p.grad.nbytes for p in [x] + proj.parameters())
    assert r.grad is None
    assert peak - base <= 1.5 * held
    assert after - base <= 1.25 * grad_bytes
