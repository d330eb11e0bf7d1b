import tracemalloc
import weakref

import numpy as np
import pytest
from reference_ops import (
    depthwise_conv2d,
    div_broadcast,
    gelu_gate,
    guard_denominator,
    l2_normalize,
    nearest_upsample2x,
    sum_axis,
)

from linpaint import tensor
from linpaint.attention import taylor_linear_attention
from linpaint.autograd import Parameter, Tape, adamw_step, finite_diff_check, zero_grads
from linpaint.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    absolute,
    add,
    conv2d,
    fused_op,
    hadamard,
    layer_norm_sites,
    leaky_relu,
    log_clamped,
    make_rng,
    matmul,
    mean_all,
    reshape,
    scale,
    sigmoid,
    sub,
    sum_all,
    tanh,
    transpose,
    upsample_conv2d,
)


def test_backward_sum_is_ones():
    w = Parameter(make_rng(0).normal(size=(3, 2)))
    with Tape() as tape:
        loss = sum_all(w)
        tape.backward(loss)
    assert np.array_equal(w.grad, np.ones((3, 2)))


def test_backward_quadratic():
    w = Parameter([1.0, 2.0, 3.0])
    with Tape() as tape:
        loss = sum_all(hadamard(w, w))
        tape.backward(loss)
    assert np.allclose(w.grad, [2.0, 4.0, 6.0], atol=1e-14)


def test_backward_requires_scalar():
    w = Parameter(np.ones((2, 2)))
    with Tape() as tape:
        out = hadamard(w, w)
        with pytest.raises(ShapeError):
            tape.backward(out)


def test_gradient_accumulation_across_uses():
    base = make_rng(1).normal(size=(4,))

    w = Parameter(base.copy())
    with Tape() as tape:
        loss = add(sum_all(hadamard(w, w)), sum_all(scale(w, 3.0)))
        tape.backward(loss)
    twice = w.grad.copy()

    w1 = Parameter(base.copy())
    with Tape() as tape:
        tape.backward(sum_all(hadamard(w1, w1)))
    w2 = Parameter(base.copy())
    with Tape() as tape:
        tape.backward(sum_all(scale(w2, 3.0)))
    assert np.allclose(twice, w1.grad + w2.grad, atol=1e-14)


def test_composite_graph_matches_finite_differences():
    rng = make_rng(2)
    a = Parameter(rng.normal(size=(3, 4)))
    b = Parameter(rng.normal(size=(4, 2)))

    def f():
        y = matmul(sigmoid(a), b)
        return mean_all(hadamard(tanh(y), y))

    assert finite_diff_check(f, [a, b]) < 1e-4


def test_no_tape_means_no_graph():
    w = Parameter(np.ones(3))
    out = hadamard(w, w)
    assert out.grad is None and w.grad is None


def test_detach_blocks_gradient():
    w = Parameter([2.0, 3.0])
    with Tape() as tape:
        cut = hadamard(w, w).detach()
        loss = sum_all(hadamard(cut, w))
        tape.backward(loss)
    # Only the direct use of w contributes: d/dw (c*w) = c = w^2.
    assert np.allclose(w.grad, [4.0, 9.0], atol=1e-14)


def test_requires_grad_marks_parameters_and_recorded_outputs():
    w = Parameter(np.ones(3))
    c = Tensor(np.ones(3))
    assert w.requires_grad and not c.requires_grad
    assert not w.detach().requires_grad
    assert not hadamard(w, w).requires_grad   # no tape, no step
    with Tape():
        assert hadamard(w, c).requires_grad
        assert not hadamard(c, c).requires_grad


def test_op_on_constants_records_no_step():
    a = Tensor(make_rng(6).normal(size=(3, 4)))
    b = Tensor(make_rng(7).normal(size=(4, 2)))
    with Tape() as tape:
        sum_all(matmul(tanh(a), b))
        assert len(tape) == 0
        w = Parameter(np.ones((4, 2)))
        # Only the step that reads the parameter is recorded.
        sum_all(matmul(tanh(a), w))
        assert len(tape) == 2


def test_backward_leaves_gradients_only_on_parameters():
    rng = make_rng(8)
    w = Parameter(rng.normal(size=(3, 4)))
    v = Parameter(rng.normal(size=(4,)))
    c = Tensor(rng.normal(size=(3, 4)))
    with Tape() as tape:
        h = tanh(hadamard(w, c))
        cut = h.detach()
        y = add(h, hadamard(cut, w))
        s = sum_axis(y, 0)
        loss = sum_all(hadamard(reshape(s, (4,)), v))
        tape.backward(loss)
    assert w.grad is not None and v.grad is not None
    for t in (c, cut, h, y, s, loss):
        assert t.grad is None
    assert len(tape) == 0


def test_tape_is_single_use():
    w = Parameter([1.0, 2.0])
    with Tape() as tape:
        loss = sum_all(hadamard(w, w))
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already been replayed"):
            tape.backward(loss)
    assert np.array_equal(w.grad, [2.0, 4.0])


# ---------------------------------------------------------------------------
# Gradients the tape owns
#
# The tape adds a further contribution into a gradient it owns in place. Each
# case runs its graph twice: as the library does, and on a tape that owns
# nothing, so every further contribution builds ``t.grad + g`` as a new array.
# The gradients must be the same bits, no forward value may be written, and
# the owning run must have added in place at least ``in_place`` times.


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _owning_and_plain(monkeypatch, build, leaves, in_place=1):
    """``build()`` records a scalar loss and returns it with the tensors it
    made; returns the leaves' gradients of the owning and the plain run."""
    runs = []
    for owning in (True, False):
        added = []
        with monkeypatch.context() as m:
            real_accumulate, real_owned_grad = tensor._accumulate, tensor._owned_grad

            def accumulate(tape, t, g, fresh):
                added.append(t.grad is not None and tape._owns(t.grad))
                real_accumulate(tape, t, g, fresh)

            def owned_grad(t):
                into = real_owned_grad(t)
                added.append(into is not None)
                return into

            m.setattr(tensor, "_accumulate", accumulate)
            m.setattr(tensor, "_owned_grad", owned_grad)
            if not owning:
                m.setattr(Tape, "_owns", lambda self, a: False)
            with Tape() as tape:
                loss, made = build()
                forward = [(t, t.data.copy()) for t in (*leaves, *made)]
                tape.backward(loss)
        assert all(_same_bits(t.data, before) for t, before in forward)
        assert sum(added) >= in_place if owning else not any(added)
        runs.append([t.grad.copy() for t in leaves])
        for t in leaves:
            t.grad = None
    for got, want in zip(*runs):
        assert _same_bits(got, want)
    return runs[0]


def _dot(a, r):
    return sum_all(hadamard(a, Tensor(r)))


def test_owned_gradient_add_gives_one_g_to_two_inputs(monkeypatch):
    # y has two consumers, so its gradient is a sum the tape owns; add passes
    # that array on to a and b unchanged. Their further contributions
    # (recorded first, so replayed last) must not be added into it.
    rng = make_rng(70)
    a, b = Parameter(rng.normal(size=(3, 4))), Parameter(rng.normal(size=(3, 4)))
    r = rng.normal(size=(4, 3, 4))

    def build():
        first = add(_dot(a, r[0]), _dot(b, r[1]))
        y = add(a, b)
        return add(first, add(_dot(y, r[2]), _dot(y, r[3]))), [y]

    ga, gb = _owning_and_plain(monkeypatch, build, [a, b])
    assert _same_bits(ga, (r[2] + r[3]) + r[0]) and _same_bits(gb, (r[2] + r[3]) + r[1])


def test_owned_gradient_reshape_views(monkeypatch):
    # Both reshapes return views of the one gradient that add passes on, so
    # a's and b's gradients share memory until their other uses add to them.
    rng = make_rng(71)
    a, b = Parameter(rng.normal(size=(2, 6))), Parameter(rng.normal(size=(3, 4)))
    r = rng.normal(size=(4, 12))

    def build():
        first = add(_dot(a, r[0].reshape(2, 6)), _dot(b, r[1].reshape(3, 4)))
        y = add(reshape(a, (12,)), reshape(b, (12,)))
        return add(first, add(_dot(y, r[2]), _dot(y, r[3]))), [y]

    _owning_and_plain(monkeypatch, build, [a, b])


def test_owned_gradient_with_many_consumers(monkeypatch):
    rng = make_rng(72)
    x = Parameter(rng.normal(size=(4, 5)))
    r = rng.normal(size=(4, 4, 5))

    def build():
        t = tanh(x)
        terms = [_dot(t, r[0]), _dot(scale(x, 3.0), r[1]), _dot(hadamard(x, x), r[2]),
                 _dot(x, r[3])]
        return add(add(terms[0], terms[1]), add(terms[2], terms[3])), [t]

    _owning_and_plain(monkeypatch, build, [x], in_place=3)


def test_owned_gradient_never_writes_a_gradient_from_an_earlier_backward(monkeypatch):
    # Gradients left by one backward (no zero_grads) are not the next tape's:
    # it sums into new arrays, which it then owns.
    rng = make_rng(73)
    x = Tensor(rng.normal(size=(2, 5, 5)))
    w, b = Parameter(rng.normal(size=(3, 2, 3, 3))), Parameter(np.zeros(3))
    r = rng.normal(size=(2, 3, 5, 5))
    with Tape() as tape:
        tape.backward(_dot(conv2d(x, w, b, 1, 1), r[0]))
    earlier = {"w": w.grad, "b": b.grad}
    kept = {name: g.copy() for name, g in earlier.items()}

    def build():
        w.grad, b.grad = earlier["w"], earlier["b"]
        y1, y2 = conv2d(x, w, b, 1, 1), conv2d(x, w, b, 1, 1)
        return add(_dot(y1, r[0]), _dot(y2, r[1])), [y1, y2]

    _owning_and_plain(monkeypatch, build, [w, b], in_place=2)
    assert all(_same_bits(earlier[name], kept[name]) for name in kept)


def test_owned_gradient_one_new_array_for_two_inputs(monkeypatch):
    # A step that returns one new array for both inputs: neither owns it.
    rng = make_rng(77)
    a, b = Parameter(rng.normal(size=(3, 4))), Parameter(rng.normal(size=(3, 4)))
    r = rng.normal(size=(3, 3, 4))

    def build():
        first = add(_dot(a, r[0]), _dot(b, r[1]))
        y = fused_op(a.data + b.data, "add_doubled", (a, b), lambda g, needs: [2.0 * g] * 2)
        return add(first, _dot(y, r[2])), [y]

    _owning_and_plain(monkeypatch, build, [a, b], in_place=0)


def test_owned_gradient_is_never_a_read_only_broadcast(monkeypatch):
    rng = make_rng(74)
    a = Parameter(rng.normal(size=(3, 4)))
    r = rng.normal(size=(2, 3, 4))

    def build():
        first = add(_dot(tanh(a), r[0]), _dot(a, r[1]))
        # Recorded last, so its read-only gradient reaches a first.
        total = fused_op(np.asarray(a.data.sum()), "sum_broadcast", (a,),
                         lambda g, needs: (np.broadcast_to(float(g), a.shape),))
        return add(first, total), []

    _owning_and_plain(monkeypatch, build, [a])


@pytest.mark.parametrize("shared", [False, True])
def test_owned_gradient_of_taylor_attention_views(monkeypatch, shared):
    # The op returns the three gradients as views of one (3, N, C) array.
    rng = make_rng(75)
    q, k, v = (Parameter(rng.normal(size=(9, 4))) for _ in range(3))
    r = rng.normal(size=(4, 9, 4))
    leaves = [q] if shared else [q, k, v]

    def build():
        first = add(_dot(q, r[0]), add(_dot(k, r[1]), _dot(v, r[2])))
        y = taylor_linear_attention(q, q, q) if shared else taylor_linear_attention(q, k, v)
        return add(first, _dot(y, r[3])), [y]

    _owning_and_plain(monkeypatch, build, leaves, in_place=3)


@pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (4, 2, 1)])
def test_owned_gradient_of_a_conv_weight_used_twice(monkeypatch, k, stride, padding):
    # 37 input channels run in several channel blocks; the second use's
    # weight gradient is added into the first's a block at a time.
    rng = make_rng(76)
    x1, x2 = (Parameter(rng.normal(size=(37, 6, 6))) for _ in range(2))
    w = Parameter(rng.normal(size=(5, 37, k, k)))
    b = Parameter(rng.normal(size=(5,)))
    ho = (6 + 2 * padding - k) // stride + 1
    r = rng.normal(size=(2, 5, ho, ho))

    def build():
        y1 = conv2d(x1, w, b, stride, padding)
        y2 = conv2d(x2, w, b, stride, padding)
        return add(_dot(y1, r[0]), _dot(y2, r[1])), [y1, y2]

    _owning_and_plain(monkeypatch, build, [x1, x2, w, b], in_place=2)



def test_tape_keeps_no_owned_gradient_alive():
    # y's gradient is a sum the tape owns; once y's step has used it, the
    # step recorded before it finds that array freed.
    rng = make_rng(78)
    x = Parameter(rng.normal(size=(3, 4)))
    r = rng.normal(size=(2, 3, 4))
    used = []

    def y_vjp(g, needs):
        used.append(weakref.ref(g))
        return (2.0 * g,)

    def c_vjp(g, needs):
        assert used[0]() is None
        return (g.copy(),)

    with Tape() as tape:
        c = fused_op(x.data.copy(), "copy", (x,), c_vjp)
        y = fused_op(2.0 * c.data, "double", (c,), y_vjp)
        tape.backward(add(_dot(y, r[0]), _dot(y, r[1])))
    assert len(used) == 1 and _same_bits(x.grad, 2.0 * (r[1] + r[0]))


# ---------------------------------------------------------------------------
# What a step holds: gradient slots and the arrays its backward reads


def test_an_output_no_backward_reads_is_freed_during_the_forward():
    # add's output is read by no backward (scale's keeps only its factor),
    # and a step holds gradient slots, not tensors: once the caller drops
    # it, its array is freed. The taped forward then holds one map, the
    # result (two when each step held its output and input tensors).
    rng = make_rng(90)
    x = Tensor(rng.normal(size=(512, 512)))
    p = Parameter(rng.normal(size=(512, 512)))
    tracemalloc.start()
    try:
        with Tape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            s = add(x, p)
            freed = weakref.ref(s.data)
            y = scale(s, 2.0)
            del s
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(sum_all(y))
    finally:
        tracemalloc.stop()
    assert freed() is None
    assert held <= 1.25 * x.data.nbytes
    assert np.array_equal(p.grad, np.full(p.shape, 2.0))


def _mixed_graph(leaves, keep):
    """A scalar loss over most ops; every intermediate goes to ``keep`` if it
    is a list, else the caller holds none of them."""
    x, w, b, gamma, beta, wu, bu, m, q = leaves

    def k(t):
        if keep is not None:
            keep.append(t)
        return t

    h = k(leaky_relu(k(conv2d(x, w, b, 1, 1))))
    h = k(upsample_conv2d(k(layer_norm_sites(h, gamma, beta)), wu, bu))
    h = k(gelu_gate(h, k(tanh(h))))
    flat = k(reshape(h, (4, 64)))
    att = k(taylor_linear_attention(k(transpose(flat)), q, q))
    prod = k(matmul(k(transpose(att)), k(sigmoid(m))))
    term = k(mean_all(k(log_clamped(k(sigmoid(prod))))))
    return sub(k(sum_all(k(absolute(k(hadamard(prod, prod)))))), k(scale(term, 3.0)))


def test_gradients_reach_every_leaf_when_the_caller_drops_every_intermediate():
    # The steps hold the slots of their outputs and inputs, so dropping
    # every intermediate Tensor before backward changes no gradient bit.
    rng = make_rng(91)
    leaves = [Parameter(rng.normal(size=shape) * 0.5) for shape in
              [(3, 4, 4), (4, 3, 3, 3), (4,), (4,), (4,), (4, 4, 3, 3), (4,), (64, 5), (64, 4)]]
    grads = []
    for keep in ([], None):
        with Tape() as tape:
            tape.backward(_mixed_graph(leaves, keep))
        grads.append([p.grad for p in leaves])
        zero_grads(leaves)
    assert all(g is not None for g in grads[1])
    assert all(_same_bits(a, b) for a, b in zip(*grads))

# ---------------------------------------------------------------------------
# AdamW


def test_adamw_decay_only():
    p = Parameter([1.0])
    p.grad = np.zeros(1)
    adamw_step([p], lr=0.1, weight_decay=0.01)
    assert np.allclose(p.data, [0.999], atol=1e-15)
    assert np.all(p.adam_m == 0) and np.all(p.adam_v == 0)
    assert p.grad is None


def test_adamw_first_step_closed_form():
    p = Parameter([5.0])
    p.grad = np.ones(1)
    adamw_step([p], lr=0.01, weight_decay=0.0)
    # Bias correction makes m_hat = 1, v_hat = 1 on step one.
    assert abs(p.data[0] - (5.0 - 0.01 * 1.0 / (1.0 + 1e-8))) < 1e-12


def test_adamw_symmetry():
    p1, p2 = Parameter([1.0]), Parameter([-2.0])
    p1.grad = np.array([0.7])
    p2.grad = np.array([0.7])
    adamw_step([p1, p2], lr=0.05)
    assert (1.0 - p1.data[0]) == (-2.0 - p2.data[0])


def test_adamw_lr_zero_is_identity_and_zeroes_grads():
    p = Parameter(make_rng(3).normal(size=(2, 2)))
    before = p.data.copy()
    p.grad = np.ones((2, 2))
    adamw_step([p], lr=0.0, weight_decay=0.5)
    assert np.array_equal(p.data, before)
    assert p.grad is None


def test_adamw_in_place_matches_formula():
    # Three steps with decay on, one parameter left without a gradient and
    # one that spans three chunks with a ragged last one: the chunked update
    # is bit-identical to the textbook expression.
    rng = make_rng(4)
    shapes = [(3, 4), (5,), (2, 2, 1, 1), (3, 8193)]
    params = [Parameter(rng.normal(size=s)) for s in shapes]
    want = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for p in params]
    lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.05
    for t in range(1, 4):
        grads = [rng.normal(size=s) for s in shapes]
        grads[1] = None
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy()
        adamw_step(params, lr, weight_decay=wd)
        for i, g in enumerate(grads):
            data, m, v = want[i]
            data = data * (1.0 - lr * wd)
            m, v = m * b1, v * b2
            if g is not None:
                m = m + (1.0 - b1) * g
                v = v + (1.0 - b2) * (g * g)
            m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
            want[i] = (data - lr * m_hat / (np.sqrt(v_hat) + eps), m, v)
    for p, (data, m, v) in zip(params, want):
        assert p.step_count == 3 and p.grad is None
        assert np.array_equal(p.data, data)
        assert np.array_equal(p.adam_m, m) and np.array_equal(p.adam_v, v)


def test_adamw_non_finite_gradient_names_parameter_and_updates_nothing():
    # The NaN sits past the first chunk of a multi-chunk parameter, after a
    # parameter that is checked clean: the check still runs before any update.
    rng = make_rng(5)
    params = [Parameter(rng.normal(size=(3, 3)), name="enc1.block0.attn.wq.w"),
              Parameter(rng.normal(size=(3, 8193)), name="disc.conv3.w"),
              Parameter(rng.normal(size=(3,)), name="enc1.block0.attn.wq.b")]
    for p in params:
        p.grad = rng.normal(size=p.shape)
    adamw_step(params, lr=0.01)
    for p in params:
        p.grad = rng.normal(size=p.shape)
    params[1].grad[2, 100] = np.nan
    before = [(p.data.copy(), p.adam_m.copy(), p.adam_v.copy(), p.step_count)
              for p in params]
    with pytest.raises(NonFiniteError, match=r"disc\.conv3\.w"):
        adamw_step(params, lr=0.01, weight_decay=0.1)
    for p, (data, m, v, steps) in zip(params, before):
        assert np.array_equal(p.data, data)
        assert np.array_equal(p.adam_m, m) and np.array_equal(p.adam_v, v)
        assert p.step_count == steps


def test_adamw_allocates_only_chunk_scratch_after_first_step():
    # The 512x256x4x4 kernel of the width-64 discriminator: 16.8 MB per copy.
    rng = make_rng(6)
    p = Parameter(rng.normal(size=(512, 256, 4, 4)))
    p.grad = rng.normal(size=p.shape)
    adamw_step([p], lr=0.01)
    p.grad = rng.normal(size=p.shape)
    tracemalloc.start()
    try:
        adamw_step([p], lr=0.01, weight_decay=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.step_count == 2 and p.grad is None
    assert peak <= 2**20


def test_zero_grads():
    p = Parameter(np.ones(2))
    p.grad = np.ones(2)
    zero_grads([p])
    assert p.grad is None


# ---------------------------------------------------------------------------
# finite_diff_check sanity


def test_finite_diff_sum_of_squares():
    w = Parameter(make_rng(4).normal(size=(5,)))
    assert finite_diff_check(lambda: sum_all(hadamard(w, w)), [w]) < 1e-9


def test_finite_diff_coordinate_sampling():
    w = Parameter(make_rng(5).normal(size=(40,)))
    err = finite_diff_check(lambda: sum_all(hadamard(w, w)), [w], coords_per_param=5)
    assert err < 1e-9


# ---------------------------------------------------------------------------
# Per-primitive gradient checks (random N(0,1) points, h=1e-5)


def _check(f, params, tol=1e-4):
    assert finite_diff_check(f, params) < tol


def test_grad_matmul():
    rng = make_rng(10)
    a = Parameter(rng.normal(size=(3, 4)))
    b = Parameter(rng.normal(size=(4, 2)))
    r = Tensor(rng.normal(size=(3, 2)))
    _check(lambda: sum_all(hadamard(matmul(a, b), r)), [a, b])


def test_grad_transpose():
    rng = make_rng(11)
    a = Parameter(rng.normal(size=(3, 4)))
    r = Tensor(rng.normal(size=(4, 3)))
    _check(lambda: sum_all(hadamard(transpose(a), r)), [a])


def test_grad_l2_normalize_rows():
    rng = make_rng(13)
    a = Parameter(rng.normal(size=(4, 3)))
    r = Tensor(rng.normal(size=(4, 3)))
    _check(lambda: sum_all(hadamard(l2_normalize(a), r)), [a])
    _check(lambda: sum_all(hadamard(l2_normalize(a, axis=0), r)), [a])


def test_grad_conv2d():
    rng = make_rng(14)
    x = Parameter(rng.normal(size=(2, 5, 5)))
    w = Parameter(rng.normal(size=(3, 2, 3, 3)))
    b = Parameter(rng.normal(size=(3,)))
    r = Tensor(rng.normal(size=(3, 3, 3)))
    _check(lambda: sum_all(hadamard(conv2d(x, w, b, stride=2, padding=1), r)), [x, w, b])


# The configurations the model and the discriminator call: 1x1 projections,
# the discriminator's 4x4 stride-2 layers, and the 7x7 head (few channels in,
# more out) and tail (more in, few out).
@pytest.mark.parametrize("cin,cout,k,stride,padding,hw", [
    (6, 4, 1, 1, 0, (5, 4)),
    (5, 7, 4, 2, 1, (8, 6)),
    (3, 8, 7, 1, 3, (6, 5)),
    (8, 3, 7, 1, 3, (6, 5)),
])
def test_grad_conv2d_model_configs(cin, cout, k, stride, padding, hw):
    rng = make_rng(17 + k)
    x = Parameter(rng.normal(size=(cin,) + hw))
    w = Parameter(rng.normal(size=(cout, cin, k, k)))
    b = Parameter(rng.normal(size=(cout,)))
    out_shape = conv2d(x, w, b, stride=stride, padding=padding).shape
    r = Tensor(rng.normal(size=out_shape))
    _check(lambda: sum_all(hadamard(conv2d(x, w, b, stride=stride, padding=padding), r)),
           [x, w, b])


def test_grad_depthwise_conv2d():
    rng = make_rng(15)
    x = Parameter(rng.normal(size=(3, 5, 5)))
    w = Parameter(rng.normal(size=(3, 3, 3)))
    b = Parameter(rng.normal(size=(3,)))
    r = Tensor(rng.normal(size=(3, 5, 5)))
    _check(lambda: sum_all(hadamard(depthwise_conv2d(x, w, b, padding=1), r)), [x, w, b])


@pytest.mark.parametrize("k,padding", [(3, 0), (3, 1), (4, 1)])
def test_grad_depthwise_conv2d_stride2(k, padding):
    rng = make_rng(60 + 10 * k + padding)
    x = Parameter(rng.normal(size=(3, 7, 6)))
    w = Parameter(rng.normal(size=(3, k, k)))
    b = Parameter(rng.normal(size=(3,)))
    ho, wo = depthwise_conv2d(x, w, b, 2, padding).shape[1:]
    r = Tensor(rng.normal(size=(3, ho, wo)))
    _check(lambda: sum_all(hadamard(depthwise_conv2d(x, w, b, 2, padding), r)), [x, w, b])


def test_grad_upsample():
    rng = make_rng(16)
    x = Parameter(rng.normal(size=(2, 3, 3)))
    r = Tensor(rng.normal(size=(2, 6, 6)))
    _check(lambda: sum_all(hadamard(nearest_upsample2x(x), r)), [x])


def test_grad_upsample_conv2d():
    rng = make_rng(26)
    x = Parameter(rng.normal(size=(3, 3, 5)))
    w = Parameter(rng.normal(size=(2, 3, 3, 3)))
    b = Parameter(rng.normal(size=(2,)))
    r = Tensor(rng.normal(size=(2, 6, 10)))
    _check(lambda: sum_all(hadamard(upsample_conv2d(x, w, b), r)), [x, w, b])


def test_grad_pointwise():
    rng = make_rng(17)
    x = Parameter(rng.normal(size=(12,)))
    r = Tensor(rng.normal(size=(12,)))
    a = Parameter(rng.normal(size=(12,)))
    _check(lambda: sum_all(hadamard(gelu_gate(a, x), r)), [a, x])
    _check(lambda: sum_all(hadamard(tanh(x), r)), [x])
    _check(lambda: sum_all(hadamard(sigmoid(x), r)), [x])
    _check(lambda: sum_all(hadamard(leaky_relu(x), r)), [x])
    _check(lambda: sum_all(hadamard(absolute(x), r)), [x])


def test_grad_log_clamped():
    x = Parameter([0.5, 2.0, 3.5])
    r = Tensor([1.0, -2.0, 0.5])
    _check(lambda: sum_all(hadamard(log_clamped(x), r)), [x])


def test_grad_structural():
    rng = make_rng(18)
    x = Parameter(rng.normal(size=(2, 3, 4)))
    y = Parameter(rng.normal(size=(3, 3, 4)))
    w = Parameter(rng.normal(size=(4, 5, 1, 1)))
    b = Parameter(rng.normal(size=(4,)))
    r3 = Tensor(rng.normal(size=(4, 3, 4)))
    _check(lambda: sum_all(hadamard(conv2d((x, y), w, b), r3)), [x, y, w, b])
    r4 = Tensor(rng.normal(size=(2, 12)))
    _check(lambda: sum_all(hadamard(reshape(x, (2, 12)), r4)), [x])
    m = Parameter(rng.normal(size=(6, 4)))
    r5 = Tensor(rng.normal(size=(2, 3, 4)))
    _check(lambda: sum_all(hadamard(reshape(m, (2, 3, 4)), r5)), [m])


def test_grad_rowwise():
    rng = make_rng(19)
    a = Parameter(rng.normal(size=(4, 3)))
    d = Parameter(rng.normal(size=(4, 1)) + 3.0)
    r = Tensor(rng.normal(size=(4, 3)))
    _check(lambda: sum_all(hadamard(div_broadcast(a, d), r)), [a, d])
    r6 = Tensor(rng.normal(size=(1, 3)))
    _check(lambda: sum_all(hadamard(sum_axis(a, 0), r6)), [a])
    r7 = Tensor(rng.normal(size=(4, 1)))
    _check(lambda: sum_all(hadamard(guard_denominator(d, 1e-6), r7)), [d])
    # The (heads, d, N) forms of multi-head attention: a per-token denominator
    # broadcast over the head's channels, and per-channel totals over tokens.
    s = Parameter(rng.normal(size=(2, 3, 5)))
    ds = Parameter(rng.normal(size=(2, 1, 5)) + 3.0)
    rs = Tensor(rng.normal(size=(2, 3, 5)))
    _check(lambda: sum_all(hadamard(div_broadcast(s, ds), rs)), [s, ds])
    rt = Tensor(rng.normal(size=(2, 3, 1)))
    _check(lambda: sum_all(hadamard(sum_axis(s, 2), rt)), [s])


def test_grad_layer_norm():
    rng = make_rng(20)
    x = Parameter(rng.normal(size=(4, 3, 3)))
    gamma = Parameter(rng.normal(size=(4,)) + 1.0)
    beta = Parameter(rng.normal(size=(4,)))
    r = Tensor(rng.normal(size=(4, 3, 3)))
    _check(lambda: sum_all(hadamard(layer_norm_sites(x, gamma, beta), r)),
           [x, gamma, beta], tol=1e-4)


def test_grad_reductions():
    rng = make_rng(21)
    a = Parameter(rng.normal(size=(3, 3)))
    _check(lambda: mean_all(hadamard(a, a)), [a])
    _check(lambda: scale(sum_all(sub(a, Tensor(np.ones((3, 3))))), 0.5), [a])
