import math
import tracemalloc

import numpy as np
import pytest
from conftest import force_bands, reference_softmax, reference_taylor
from reference_ops import div_broadcast, guard_denominator, l2_normalize, sum_axis

import linpaint.attention as A
from linpaint import tensor as T
from linpaint.attention import (
    AttentionConfig,
    ProjectionSet,
    _taylor_core,
    gated_attention,
    gelu_gate,
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
    fused_op,
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
    q, k, v = (rng.normal(size=(1, 4)) for _ in range(3))
    assert np.allclose(vanilla_attention(q, k, v), v, atol=1e-15)


def test_vanilla_zero_query_gives_column_mean():
    rng = make_rng(1)
    k = rng.normal(size=(5, 3))
    v = rng.normal(size=(5, 3))
    out = vanilla_attention(np.zeros((5, 3)), k, v)
    assert np.allclose(out, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)


def test_vanilla_matches_scalar_loop():
    rng = make_rng(2)
    q, k, v = (rng.normal(size=(3, 2)) for _ in range(3))
    got = vanilla_attention(q, k, v)
    assert np.max(np.abs(got - reference_softmax(q, k, v))) <= 1e-12


def test_vanilla_matches_scalar_loop_across_row_blocks():
    # N=300 spans two row blocks, the second of them ragged.
    rng = make_rng(9)
    q, k, v = (rng.normal(size=(300, 4)) for _ in range(3))
    got = vanilla_attention(q, k, v)
    assert np.max(np.abs(got - reference_softmax(q, k, v))) <= 1e-12


def _oracle_peak(oracle):
    rng = make_rng(8)
    q, k, v = (rng.normal(size=(2048, 8)) for _ in range(3))
    tracemalloc.start()
    try:
        oracle(q, k, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_vanilla_memory_is_row_blocks():
    # One N x N map is 32 MiB here; one 256-row block of it is 4 MiB, and the
    # oracle holds one block at a time (two, 8.1 MiB, when each block was a
    # fresh array).
    assert _oracle_peak(vanilla_attention) <= 6 * 2**20


def test_quadratic_oracle_memory_is_row_blocks():
    # As for vanilla_attention: one 4 MiB block at a time (8.4 MiB before).
    assert _oracle_peak(taylor_attention_quadratic) <= 6 * 2**20


def test_vanilla_shape_mismatch():
    with pytest.raises(ShapeError):
        vanilla_attention(np.ones((3, 2)), np.ones((4, 2)), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# taylor linear attention


def test_taylor_sum_zero_query_equals_vanilla():
    rng = make_rng(3)
    k = rng.normal(size=(6, 4))
    v = rng.normal(size=(6, 4))
    q0 = np.zeros((6, 4))
    lin = taylor_linear_attention(Tensor(q0), Tensor(k), Tensor(v), mode="sum").data
    van = vanilla_attention(q0, k, v)
    assert np.allclose(lin, van, atol=1e-12)
    assert np.allclose(lin, np.tile(v.mean(axis=0), (6, 1)), atol=1e-12)


def test_taylor_residual_zero_query():
    rng = make_rng(4)
    k = rng.normal(size=(5, 3))
    v = rng.normal(size=(5, 3))
    out = taylor_linear_attention(Tensor(np.zeros((5, 3))), Tensor(k), Tensor(v),
                                  mode="residual").data
    assert np.allclose(out, v / 5.0, atol=1e-12)


def _denominators(q, k, normalize_qk):
    """The denominators N + s.q of the map on (heads, d, N) q/k stacks."""
    if normalize_qk:
        q, k = (a / np.sqrt((a * a).sum(axis=1, keepdims=True)) for a in (q, k))
    return q.shape[2] + np.einsum("hd,hdn->hn", k.sum(axis=2), q)


def _eps_between(denom):
    """An eps halfway between the two middle |denominators|: it clamps about
    half of them, away from any sign ambiguity."""
    ranked = np.sort(np.abs(denom).ravel())
    m = ranked.size // 2
    assert ranked[m] - ranked[m - 1] > 1e-6 * ranked[m]
    return float(ranked[m - 1] + ranked[m]) / 2.0


@pytest.mark.parametrize("mode", ["sum", "residual", "none"])
@pytest.mark.parametrize("normalize_qk", [True, False])
@pytest.mark.parametrize("clamp", [True, False])
def test_taylor_matches_quadratic_oracle(mode, normalize_qk, clamp):
    # clamp sets eps between two denominators, so the guard clamps about half.
    rng = make_rng(5)
    for n, c in [(8, 4), (16, 8), (32, 4)]:
        q = rng.normal(size=(n, c))
        k = rng.normal(size=(n, c))
        v = rng.normal(size=(n, c))
        eps = _eps_between(_denominators(q.T[None], k.T[None], normalize_qk)) if clamp else 1e-6
        got = taylor_linear_attention(Tensor(q), Tensor(k), Tensor(v), mode=mode, eps=eps,
                                      normalize_qk=normalize_qk).data
        want = reference_taylor(q, k, v, mode, eps=eps, normalize_qk=normalize_qk)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_quadratic_helper_agrees_with_linear_path():
    # The shipped benchmarking reference must compute the same map, including
    # across row blocks: N=300 ends in a ragged one.
    rng = make_rng(6)
    q = rng.normal(size=(300, 5))
    k = rng.normal(size=(300, 5))
    v = rng.normal(size=(300, 5))
    for mode in ("sum", "residual", "none"):
        lin = taylor_linear_attention(Tensor(q), Tensor(k), Tensor(v), mode=mode).data
        quad = taylor_attention_quadratic(q, k, v, mode=mode)
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
        soft = vanilla_attention(f * qh, f * kh, v)
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
    for normalize_qk in (True, False):
        def f():
            out = taylor_linear_attention(q, k, v, mode="residual", normalize_qk=normalize_qk)
            return sum_all(hadamard(out, r))

        assert finite_diff_check(f, [q, k, v]) < 1e-4, normalize_qk


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


def _qkv(x, proj, cfg):
    """The (3, heads, d, N) q/k/v stack multi_head_attention projects x to."""
    c = cfg.channels
    x_mat = x.data.reshape(c, -1)
    return np.stack([w.data.reshape(c, c) @ x_mat + b.data[:, None] for w, b in
                     ((proj.wq, proj.bq), (proj.wk, proj.bk), (proj.wv, proj.bv))]
                    ).reshape(3, cfg.heads, cfg.head_dim, -1)


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
@pytest.mark.parametrize("mode", ["sum", "residual", "none"])
@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("normalize_qk", [True, False])
def test_multi_head_matches_per_head_loop(heads, mode, clamp, normalize_qk):
    # The batched heads against one taylor_linear_attention call per head on
    # that head's channels of the projections. The model always normalizes q
    # and k; the kernel-level normalize_qk=False runs the same batched core.
    # clamp sets eps between two denominators, so the guard clamps about half.
    rng = make_rng(20 + heads)
    cfg = AttentionConfig(channels=16, heads=heads, taylor_mode=mode, gated=False)
    proj = ProjectionSet.init(16, rng)
    x = Tensor(rng.normal(size=(16, 5, 6)))
    q, k, v = stack = _qkv(x, proj, cfg)
    if clamp:
        cfg.eps = _eps_between(_denominators(q, k, normalize_qk))
    if normalize_qk:
        got = multi_head_attention(x, proj, cfg).data.reshape(q.shape)
    else:
        got, _ = _stack_core(stack, mode, cfg.eps)
    for h in range(heads):
        want = taylor_linear_attention(
            Tensor(q[h].T), Tensor(k[h].T), Tensor(v[h].T), mode=mode,
            eps=cfg.eps, normalize_qk=normalize_qk).data
        assert np.max(np.abs(got[h] - want.T)) <= 1e-12


def _composed_taylor(q, k, v, mode, eps, normalize_qk=True):
    """The linear map on (heads, d, N) q/k/v stacks as a composition of generic
    taped ops, one per step of the map: the reference the fused ops are held to."""
    heads, _, n = q.shape
    qb = l2_normalize(q, axis=1) if normalize_qk else q
    kb = l2_normalize(k, axis=1) if normalize_qk else k
    q_kv = matmul(matmul(v, transpose(kb)), qb)
    if mode == "residual":
        out = add(v, q_kv)
    elif mode == "sum":
        out = add(matmul(sum_axis(v, 2), Tensor(np.ones((heads, 1, n)))), q_kv)
    else:
        out = q_kv
    denom = add(matmul(transpose(sum_axis(kb, 2)), qb),
                Tensor(np.full((heads, 1, n), float(n))))
    return div_broadcast(out, guard_denominator(denom, eps))


def _heads(x, proj, cfg, attend):
    """Project x to (heads, d, N) q/k/v stacks with taped ops, run
    ``attend(q, k, v)`` on them and fold the result back to x's shape."""
    _, h, w = x.shape
    stack = (cfg.heads, cfg.head_dim, h * w)
    q, k, v = (reshape(conv2d(x, wt, b), stack) for wt, b in
               ((proj.wq, proj.bq), (proj.wk, proj.bk), (proj.wv, proj.bv)))
    return reshape(attend(q, k, v), x.shape)


def _composed_multi_head(x, proj, cfg, normalize_qk=True):
    """multi_head_attention built on :func:`_composed_taylor`."""
    return _heads(x, proj, cfg, lambda q, k, v: _composed_taylor(
        q, k, v, cfg.taylor_mode, cfg.eps, normalize_qk))


def _stack_core(stack, mode, eps):
    """The banded core with the kernel-level normalize_qk=False on a whole
    (3, heads, d, N) q/k/v stack."""
    _, heads, d, n = stack.shape
    def load(lo, hi, parts, block):
        block[...] = stack[parts, ..., lo:hi].reshape(block.shape)

    return _taylor_core(load, n, heads, d, mode, eps, normalize_qk=False)


def _unnormalized_core(q, k, v, mode, eps):
    """The banded core with the kernel-level normalize_qk=False on three
    (heads, d, N) tensors, as one recorded op."""
    qkv = np.stack([q.data, k.data, v.data])
    out, back = _stack_core(qkv, mode, eps)

    def vjp(g, needs):
        dqkv = np.empty(qkv.shape)
        for lo, hi, d_band in back(g):
            dqkv[..., lo:hi] = d_band
        return tuple(dqkv)

    return fused_op(out, "taylor_core", (q, k, v), vjp)


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
    _assert_matches_composed(lambda: multi_head_attention(x, proj, cfg),
                             lambda: _composed_multi_head(x, proj, cfg),
                             [x, proj.wq, proj.bq, proj.wk, proj.bk, proj.wv, proj.bv], r)


def _assert_matches_composed(fused, composed, params, r):
    """fused() against composed(): outputs within 1e-12, and the gradients of
    every parameter under the loss sum(out * r) within 1e-10 relative."""
    results = []
    for attend in (fused, composed):
        with Tape() as tape:
            out = attend()
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
@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("normalize_qk", [True, False])
def test_multi_head_matches_composed_ops(heads, mode, clamp, normalize_qk):
    # normalize_qk=False holds the batched core the kernel-level switch runs
    # to the composed ops; clamp sets eps between two denominators, so the
    # guard clamps about half and the clamped branch of the backward runs.
    cfg, proj, x, r = _attention_case(30 + heads, 16, heads, taylor_mode=mode)
    if clamp:
        q, k, _ = _qkv(x, proj, cfg)
        cfg.eps = _eps_between(_denominators(q, k, normalize_qk))
    if normalize_qk:
        _assert_fused_matches_composed(cfg, proj, x, r)
    else:
        _assert_matches_composed(
            lambda: _heads(x, proj, cfg, lambda q, k, v: _unnormalized_core(
                q, k, v, mode, cfg.eps)),
            lambda: _composed_multi_head(x, proj, cfg, normalize_qk=False),
            [x, proj.wq, proj.bq, proj.wk, proj.bk, proj.wv, proj.bv], r)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("mode", ["sum", "residual", "none"])
def test_multi_head_matches_composed_ops_across_ragged_bands(monkeypatch, heads, mode):
    # 30 tokens in bands of 8, 8, 8 and 6: both passes and both backward
    # passes run over several bands, the last one shorter.
    cfg, proj, x, r = _attention_case(46 + heads, 8, heads, taylor_mode=mode)
    force_bands(monkeypatch, 30, 1, 8)
    _assert_fused_matches_composed(cfg, proj, x, r)


@pytest.mark.parametrize("normalize_qk", [True, False])
def test_taylor_matches_oracle_and_composed_ops_across_ragged_bands(monkeypatch,
                                                                    normalize_qk):
    rng = make_rng(48)
    n, c = 30, 4
    q, k, v = (Parameter(rng.normal(size=(n, c))) for _ in range(3))
    r = Tensor(rng.normal(size=(n, c)))
    force_bands(monkeypatch, n, 1, 8)
    got = taylor_linear_attention(q, k, v, normalize_qk=normalize_qk).data
    want = reference_taylor(q.data, k.data, v.data, "residual", normalize_qk=normalize_qk)
    assert np.max(np.abs(got - want)) <= 1e-10

    def composed():
        def stack(t):
            return reshape(transpose(t), (1, c, n))
        out = _composed_taylor(stack(q), stack(k), stack(v), "residual", 1e-6,
                               normalize_qk=normalize_qk)
        return transpose(reshape(out, (c, n)))

    _assert_matches_composed(
        lambda: taylor_linear_attention(q, k, v, normalize_qk=normalize_qk),
        composed, [q, k, v], r)


def test_multi_head_gradient_across_ragged_bands(monkeypatch):
    cfg, proj, x, r = _attention_case(49, 8, 2)
    force_bands(monkeypatch, 30, 1, 8)
    params = [x, proj.wq, proj.bq, proj.wk, proj.bk, proj.wv, proj.bv]
    err = finite_diff_check(lambda: sum_all(hadamard(multi_head_attention(x, proj, cfg), r)),
                            params)
    assert err < 1e-4


@pytest.mark.parametrize("gated", [True, False])
def test_attention_output_is_the_same_with_and_without_a_tape(monkeypatch, gated):
    # Across ragged bands, the core and the gate (in place without a tape)
    # give the same bits either way; the core is one tape step.
    cfg, proj, x, _ = _attention_case(50, 8, 2, gated=gated)
    proj.b_gate.data[:] = make_rng(51).normal(size=8)
    force_bands(monkeypatch, 30, 1, 8)
    const = Tensor(x.data)
    plain = [multi_head_attention(const, proj, cfg).data, gated_attention(const, proj, cfg).data]
    with Tape() as tape:
        core = multi_head_attention(x, proj, cfg).data
        assert len(tape) == 1
        taped = [core, gated_attention(x, proj, cfg).data]
    for a, b in zip(plain, taped):
        assert np.array_equal(a, b)


def test_tape_free_gate_builds_no_gate_sized_temporaries(monkeypatch):
    # Without a tape the layer holds at most two C x N maps at once (the
    # attention output with the gate map, then with the output projection's
    # result) and chunk and band scratch: 2.57 maps measured, 4.65 when the
    # gate's Phi, GELU and product were separate maps.
    rng = make_rng(52)
    cfg = AttentionConfig(channels=16, heads=2)
    proj = ProjectionSet.init(16, rng)
    x = Tensor(rng.normal(size=(16, 128, 128)))
    force_bands(monkeypatch, 128 * 128, 1, 600)
    gated_attention(x, proj, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gated_attention(x, proj, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * x.data.nbytes


def test_multi_head_dead_query_column_matches_composed_ops():
    # A zero input site with a zero query bias leaves that query column all
    # zero, so its normalization has no direction and passes no gradient.
    cfg, proj, x, r = _attention_case(41, 8, 2)
    x.data[:, 2, 3] = 0.0
    proj.bq.data[:] = 0.0
    q = proj.wq.data.reshape(8, 8) @ x.data.reshape(8, 30)
    assert np.count_nonzero(np.all(q == 0.0, axis=0)) == 1
    _assert_fused_matches_composed(cfg, proj, x, r)


@pytest.mark.parametrize("mode", ["sum", "residual", "none"])
def test_multi_head_dead_columns_in_a_later_ragged_band(monkeypatch, mode):
    # Two sites of the last, shorter band have a tiny input and zero q and k
    # biases, so both heads' query and key columns there are dead but not
    # zero. The backward projects each band again and must zero those
    # columns from the saved masks. In mode "none" a dead column cannot
    # reach the output, so the gradients must not depend on its values.
    cfg, proj, x, r = _attention_case(54, 8, 2, taylor_mode=mode)
    bands = force_bands(monkeypatch, 30, 1, 8)
    sites = [bands[-1][0] + 1, bands[-1][1] - 1]
    proj.bq.data[:] = proj.bk.data[:] = 0.0
    tiny = 1e-14 * make_rng(55).normal(size=(8, 2))
    x.data.reshape(8, 30)[:, sites] = tiny
    q, k, _ = _qkv(x, proj, cfg)
    for a in (q, k):
        dead = np.sqrt((a * a).sum(axis=1)) < 1e-12
        assert np.array_equal(np.flatnonzero(dead.any(axis=0)), sites) and dead[:, sites].all()
        assert np.all(a[..., sites] != 0.0)
    _assert_fused_matches_composed(cfg, proj, x, r)

    params = [x, proj.wq, proj.bq, proj.wk, proj.bk, proj.wv, proj.bv]
    plain = multi_head_attention(Tensor(x.data), proj, cfg).data
    grads = []
    for values in (tiny, 0.0):
        x.data.reshape(8, 30)[:, sites] = values
        with Tape() as tape:
            out = multi_head_attention(x, proj, cfg)
            tape.backward(sum_all(hadamard(out, r)))
        if values is tiny:
            assert np.array_equal(out.data, plain)
        grads.append([p.grad for p in params])
        for p in params:
            p.grad = None
    if mode == "none":
        for p, got, want in zip(params, *grads):
            assert np.array_equal(got, want), p.name


def test_taylor_clamped_denominator_matches_composed_ops():
    # Without normalization the denominators N + s.q spread widely; an eps
    # between two of them clamps about half, away from any sign ambiguity.
    rng = make_rng(42)
    n, c = 30, 4
    q, k, v = (Parameter(rng.normal(size=(n, c))) for _ in range(3))
    r = Tensor(rng.normal(size=(n, c)))
    eps = _eps_between(_denominators(q.data.T[None], k.data.T[None], normalize_qk=False))

    def composed():
        def stack(t):
            return reshape(transpose(t), (1, c, n))
        out = _composed_taylor(stack(q), stack(k), stack(v), "residual", eps,
                               normalize_qk=False)
        return transpose(reshape(out, (c, n)))

    _assert_matches_composed(
        lambda: taylor_linear_attention(q, k, v, eps=eps, normalize_qk=False),
        composed, [q, k, v], r)


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
    # The forward holds 4.4 C x N maps (6.4 when each step held its output
    # and input tensors): the attention output, the gate map, its Phi and the
    # gated map. The reverse pass frees each intermediate, its captured
    # arrays and its gradient once it has passed them: it peaks at 9.0 maps,
    # set by the attention backward's band buffers, which at 64 x 64 span
    # the whole map, and afterwards little more than the leaves' gradients
    # is left.
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
    assert held <= 4.75 * x.data.nbytes
    assert peak - base <= 9.5 * x.data.nbytes
    assert after - base <= 1.25 * grad_bytes


def test_taped_multi_head_keeps_its_output_and_heads_by_n_terms():
    # Under a tape the op keeps its output and, per token and head, the
    # norms of q and k, the clamped denominator and where it was not
    # clamped: within four heads x N float arrays, with the stacked
    # projection weights. It keeps no q, k or v, and x is untouched. The
    # taped and tape-free outputs are the same bits.
    rng = make_rng(45)
    cfg = AttentionConfig(channels=32, heads=2)
    proj = ProjectionSet.init(32, rng)
    x = Parameter(rng.normal(size=(32, 64, 64)))
    x_before = x.data.copy()
    plain = multi_head_attention(x, proj, cfg).data
    tracemalloc.start()
    try:
        with Tape():
            base = tracemalloc.get_traced_memory()[0]
            taped = multi_head_attention(x, proj, cfg)
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    c, n = 32, 64 * 64
    assert held <= x.data.nbytes + 8 * (4 * cfg.heads * n + 3 * c * (c + 1))
    assert np.array_equal(taped.data, plain)
    assert np.array_equal(x.data, x_before)


def test_taped_gated_attention_peak_across_bands(monkeypatch):
    # A taped forward and backward over five bands peaks at 7.7 C x N maps
    # above its inputs (8.4 when each step held its output and input
    # tensors, 12.4 when the core kept every band's unit q, k and v and the
    # gate kept its GELU map): the backward projects each band's q, k and v
    # again, into band-sized buffers. It is 7.4 when the gate keeps Phi(z):
    # recomputing it puts a chunk of Phi and gauss_cdf's scratch on the peak,
    # and at this shape one chunk is the whole map.
    rng = make_rng(53)
    cfg = AttentionConfig(channels=16, heads=2)
    proj = ProjectionSet.init(16, rng)
    x = Parameter(rng.normal(size=(16, 64, 64)))
    r = Tensor(rng.normal(size=(16, 64, 64)))
    force_bands(monkeypatch, 64 * 64, 1, 1000)
    tracemalloc.start()
    try:
        with Tape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            tape.backward(sum_all(hadamard(gated_attention(x, proj, cfg), r)))
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8.0 * x.data.nbytes


@pytest.mark.parametrize("size", [5, 23])
def test_gelu_gate_is_the_gelu_and_product_ops_bit_for_bit(monkeypatch, size):
    # In chunks of 8 (23 elements end with a shorter one), a * GELU(z) and
    # both gradients are the bits of separate GELU and product ops:
    # y = z Phi(z), out = a y; da = g y, dz = (g a) GELU'(z).
    monkeypatch.setattr(A, "_GATE_CHUNK", 8)
    rng = make_rng(56)
    a, z = (Parameter(rng.normal(size=size) * 3.0) for _ in range(2))
    r = Tensor(rng.normal(size=size))
    phi = T.gauss_cdf(z.data)
    y = z.data * phi
    slope = phi + z.data * np.exp(-0.5 * z.data**2) * (1.0 / math.sqrt(2.0 * math.pi))
    with Tape() as tape:
        out = gelu_gate(a, z, overwrite=True)
        tape.backward(sum_all(hadamard(out, r)))
    assert np.array_equal(out.data, a.data * y)
    assert np.array_equal(a.grad, r.data * y)
    assert np.array_equal(z.grad, (r.data * a.data) * slope)


def test_taped_gelu_gate_holds_its_output_and_no_phi(monkeypatch):
    # A taped gate holds a and z, which are its inputs, and its output; Phi(z)
    # is recomputed a chunk at a time in the backward. With chunks of a
    # sixteenth of the map it holds 1.00 maps above its inputs (2.00 when it
    # kept Phi(z)).
    monkeypatch.setattr(A, "_GATE_CHUNK", 16 * 64 * 64 // 16)
    rng = make_rng(58)
    a, z = (Parameter(rng.normal(size=(16, 64, 64))) for _ in range(2))
    tracemalloc.start()
    try:
        with Tape():
            base = tracemalloc.get_traced_memory()[0]
            out = gelu_gate(a, z, overwrite=True)
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= out.data.nbytes + 8 * A._GATE_CHUNK


def test_gelu_gate_overwrites_only_when_asked_and_untaped():
    rng = make_rng(57)
    a, z = (Tensor(rng.normal(size=(3, 4, 5))) for _ in range(2))
    a_before, z_before = a.data.copy(), z.data.copy()
    fresh = gelu_gate(a, z).data
    assert np.array_equal(a.data, a_before)
    with Tape():
        taped = gelu_gate(Parameter(a.data), z, overwrite=True).data
    assert np.array_equal(a.data, a_before) and np.array_equal(taped, fresh)
    in_place = gelu_gate(a, z, overwrite=True).data
    assert np.shares_memory(in_place, a.data) and np.array_equal(in_place, fresh)
    assert np.array_equal(z.data, z_before)
    with pytest.raises(ShapeError):
        gelu_gate(a, Tensor(np.zeros((3, 4, 4))))
