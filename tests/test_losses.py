import math
import tracemalloc

import numpy as np
from conftest import reachable

from linpaint.autograd import Parameter, Tape, finite_diff_check, zero_grads
from linpaint.losses import (
    LOSS_WEIGHTS,
    PatchDiscriminator,
    RandomConvFeatureExtractor,
    discriminator_loss,
    generator_adversarial_loss,
    gram_matrix,
    l1_reconstruction,
    perceptual_loss,
    power_iteration_sigma,
    style_loss,
    total_loss,
)
from linpaint.tensor import (
    Tensor,
    conv2d,
    fused_op,
    hadamard,
    leaky_relu,
    make_rng,
    scale,
    sum_all,
)
from linpaint.unet import InpaintingUNet, ModelConfig


# ---------------------------------------------------------------------------
# reconstruction


def test_l1_identical_is_zero():
    im = Tensor(make_rng(0).uniform(size=(3, 4, 4)))
    assert l1_reconstruction(im, im).item() == 0.0


def test_l1_constant_offset():
    rng = make_rng(1)
    a = rng.uniform(size=(3, 4, 4))
    loss = l1_reconstruction(Tensor(a + 0.5), Tensor(a))
    assert abs(loss.item() - 0.5) < 1e-12


def test_l1_symmetric():
    rng = make_rng(2)
    a = Tensor(rng.uniform(size=(3, 4, 4)))
    b = Tensor(rng.uniform(size=(3, 4, 4)))
    assert l1_reconstruction(a, b).item() == l1_reconstruction(b, a).item()


# ---------------------------------------------------------------------------
# perceptual


def test_perceptual_identical_is_zero():
    fx = RandomConvFeatureExtractor()
    im = Tensor(make_rng(4).uniform(-1, 1, size=(3, 16, 16)))
    assert perceptual_loss(fx.features(im), fx.features(im)).item() == 0.0


def test_perceptual_zero_weight_extractor_is_zero():
    fx = RandomConvFeatureExtractor()
    for w, b in fx.layers:
        w.data[:] = 0.0
        b.data[:] = 0.0
    rng = make_rng(6)
    a = Tensor(rng.uniform(-1, 1, size=(3, 16, 16)))
    b = Tensor(rng.uniform(-1, 1, size=(3, 16, 16)))
    assert perceptual_loss(fx.features(a), fx.features(b)).item() == 0.0


def test_perceptual_identity_extractor_equals_l1():
    rng = make_rng(7)
    a = Tensor(rng.uniform(size=(3, 8, 8)))
    b = Tensor(rng.uniform(size=(3, 8, 8)))
    # The image itself as the only feature stage.
    assert abs(perceptual_loss([a], [b]).item() - l1_reconstruction(a, b).item()) < 1e-15


def test_extractor_is_deterministic():
    a = Tensor(make_rng(8).uniform(-1, 1, size=(3, 16, 16)))
    f1 = RandomConvFeatureExtractor().features(a)
    f2 = RandomConvFeatureExtractor().features(a)
    for x, y in zip(f1, f2):
        assert np.array_equal(x.data, y.data)


# ---------------------------------------------------------------------------
# gram / style


def test_gram_all_ones():
    g = gram_matrix(Tensor(np.ones((1, 2, 2))))
    assert np.array_equal(g.data, [[1.0]])


def test_gram_symmetric_psd():
    feat = Tensor(make_rng(10).normal(size=(4, 5, 5)))
    g = gram_matrix(feat).data
    assert np.allclose(g, g.T, atol=1e-14)
    eigs = np.linalg.eigvalsh(g)
    assert np.all(eigs >= -1e-12)


def test_gram_disjoint_channels_off_diagonal_zero():
    feat = np.zeros((2, 2, 2))
    feat[0, 0, :] = [1.0, 2.0]
    feat[1, 1, :] = [3.0, 4.0]
    g = gram_matrix(Tensor(feat)).data
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0


def test_style_identical_is_zero():
    fx = RandomConvFeatureExtractor()
    im = Tensor(make_rng(12).uniform(-1, 1, size=(3, 16, 16)))
    assert style_loss(fx.features(im), fx.features(im)).item() == 0.0


def test_style_hand_computed_case():
    # Single identity stage, C=2 features on a 2x2 grid, evaluated by scalar
    # arithmetic: gram entries are channel dot products over 4 sites / 8.
    f_out = np.array([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]])
    f_g = np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 2.0], [2.0, 2.0]]])
    # G_out = [[30, 5], [5, 2]] / 8 ; G_g = [[2, 4], [4, 16]] / 8
    # |diff| sums to (28 + 1 + 1 + 14) / 8 = 5.5
    loss = style_loss([Tensor(f_out)], [Tensor(f_g)])
    assert abs(loss.item() - 5.5) < 1e-12


# ---------------------------------------------------------------------------
# spectral normalization


def _unit_vector(rows, rng):
    u = rng.normal(size=rows)
    return u / np.linalg.norm(u)


def _sigma_after(steps, w, u):
    """The estimate of the last of ``steps`` one-step calls."""
    for _ in range(steps):
        sigma = power_iteration_sigma(w, u)
    return sigma


def test_power_iteration_diagonal():
    u = _unit_vector(2, make_rng(13))
    w = np.diag([3.0, 1.0])
    sigma = _sigma_after(20, w, u)
    assert abs(sigma - 3.0) <= 1e-6
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    normalized = w / _sigma_after(20, w, _unit_vector(2, make_rng(14)))
    assert abs(np.linalg.svd(normalized, compute_uv=False)[0] - 1.0) <= 1e-6


def test_power_iteration_matches_svd():
    rng = make_rng(15)
    w = rng.normal(size=(8, 8))
    sigma = _sigma_after(100, w, _unit_vector(8, rng))
    assert abs(sigma - np.linalg.svd(w, compute_uv=False)[0]) <= 1e-4


def test_spectral_normalize_near_identity_when_already_normalized():
    rng = make_rng(16)
    w = rng.normal(size=(6, 6))
    w = w / np.linalg.svd(w, compute_uv=False)[0]
    sigma = _sigma_after(50, w, _unit_vector(6, rng))
    assert abs(sigma - 1.0) <= 1e-4


def test_spectral_normalize_zero_matrix_unchanged():
    # A zero sigma tells PatchDiscriminator to use the weight undivided.
    u = _unit_vector(4, make_rng(17))
    before = u.copy()
    assert power_iteration_sigma(np.zeros((4, 4)), u) == 0.0
    assert np.array_equal(u, before)


def test_spectral_norm_five_iterations_window():
    rng = make_rng(18)
    for _ in range(5):
        w = rng.normal(size=(10, 10))
        out = w / _sigma_after(5, w, _unit_vector(10, rng))
        top = np.linalg.svd(out, compute_uv=False)[0]
        assert 0.9 <= top <= 1.1


# ---------------------------------------------------------------------------
# adversarial


def _zero_disc():
    disc = PatchDiscriminator(make_rng(19), base_width=4)
    for p in disc.parameters():
        p.data[:] = 0.0
    return disc


def test_discriminator_parameters_are_creation_order(created_parameters):
    disc = PatchDiscriminator(make_rng(3), base_width=8)
    params = disc.parameters()
    assert len(params) == len(created_parameters) == 10
    assert all(a is b for a, b in zip(params, created_parameters))


def test_adversarial_zero_discriminator_closed_form():
    disc = _zero_disc()
    rng = make_rng(20)
    real = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    fake = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    loss_d = discriminator_loss(disc, real, fake)
    loss_g = generator_adversarial_loss(disc, fake)
    assert abs(loss_d.item() - 2.0 * math.log(2.0)) <= 1e-12
    assert abs(loss_g.item() - math.log(2.0)) <= 1e-12


def test_adversarial_perfect_discriminator_limits():
    class Oracle:
        def __init__(self, real_id):
            self.real_id = real_id

        def forward(self, im):
            val = 50.0 if id(im) == self.real_id else -50.0
            return Tensor(np.full((1, 2, 2), val))

    rng = make_rng(21)
    real = Tensor(rng.uniform(size=(3, 32, 32)))
    fake = Tensor(rng.uniform(size=(3, 32, 32)))
    disc = Oracle(id(real))
    loss_d = discriminator_loss(disc, real, fake)
    loss_g = generator_adversarial_loss(disc, fake)
    assert loss_d.item() <= 1e-9
    assert loss_g.item() >= 20.0


def test_adversarial_clamping_keeps_losses_finite():
    # Biases bypass spectral normalization, so a huge score-layer bias
    # saturates the logistic exactly to 0/1 and exercises the log clamp.
    disc = PatchDiscriminator(make_rng(22), base_width=4)
    disc.layers[-1][1].data[:] = -800.0
    big = Tensor(np.ones((3, 32, 32)))
    fake = Tensor(-np.ones((3, 32, 32)))
    loss_d = discriminator_loss(disc, big, fake)
    loss_g = generator_adversarial_loss(disc, fake)
    assert math.isfinite(loss_d.item()) and math.isfinite(loss_g.item())
    assert loss_g.item() >= 20.0  # fake scored -800: clamp floor reached


def test_generator_adversarial_gradient_matches_fd():
    rng = make_rng(23)
    disc = PatchDiscriminator(rng, base_width=2)
    img = Parameter(rng.uniform(-0.5, 0.5, size=(3, 32, 32)))
    for _ in range(500):  # converge power iteration so sigma is static
        disc.forward(img)
    err = finite_diff_check(lambda: generator_adversarial_loss(disc, img), [img],
                            coords_per_param=6)
    assert err < 1e-4


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_discriminator_forward_takes_one_power_iteration_step_per_layer():
    # Each forward advances every layer's u by exactly one step and divides
    # that layer's input by the estimate the step returns. The scores and
    # the gradients of every w, b and the image match, to rounding, dividing
    # each weight by the same estimate instead.
    disc = PatchDiscriminator(make_rng(41), base_width=2)
    rng = make_rng(42)
    im = Parameter(rng.uniform(-1, 1, size=(3, 32, 32)))
    last = len(disc.layers) - 1
    for _ in range(3):
        expected_u = [u.copy() for _, _, u, _ in disc.layers]
        sigmas = [power_iteration_sigma(w.data.reshape(w.shape[0], -1), u)
                  for (w, _, _, _), u in zip(disc.layers, expected_u)]
        with Tape() as tape:
            out = disc.forward(im)
            probe = Tensor(rng.normal(size=out.shape))
            tape.backward(sum_all(hadamard(out, probe)))
        x = im
        for i, ((w, b, u, stride), u_next, sigma) in enumerate(
                zip(disc.layers, expected_u, sigmas)):
            assert np.array_equal(u, u_next)
            x = conv2d(scale(x, 1.0 / sigma), w, b, stride=stride, padding=1)
            if i != last:
                x = leaky_relu(x)
        assert np.array_equal(out.data, x.data)

        ref_im = Parameter(im.data.copy())
        ref_layers = [(Parameter(w.data.copy()), Parameter(b.data.copy()), stride)
                      for w, b, _, stride in disc.layers]
        with Tape() as tape:
            x = ref_im
            for i, ((w, b, stride), sigma) in enumerate(zip(ref_layers, sigmas)):
                x = conv2d(x, scale(w, 1.0 / sigma), b, stride=stride, padding=1)
                if i != last:
                    x = leaky_relu(x)
            tape.backward(sum_all(hadamard(x, probe)))
        assert _max_rel(out.data, x.data) <= 1e-12
        for (w, b, _, _), (w_ref, b_ref, _) in zip(disc.layers, ref_layers):
            assert _max_rel(w.grad, w_ref.grad) <= 1e-12
            assert _max_rel(b.grad, b_ref.grad) <= 1e-12
        assert _max_rel(im.grad, ref_im.grad) <= 1e-12
        zero_grads([im] + disc.parameters())


def test_taped_discriminator_forwards_hold_no_weight_copy():
    # One discriminator loss is two taped forwards. The layers divide their
    # inputs, not their weights, by sigma, so the tape keeps activation maps
    # only, and only those a backward reads: 0.14 copies of the weights
    # (0.49 when each step held its output and input tensors).
    disc = PatchDiscriminator(make_rng(43), base_width=64)
    rng = make_rng(44)
    ims = [Tensor(rng.uniform(-1, 1, size=(3, 64, 64))) for _ in range(2)]
    weight_bytes = sum(p.data.nbytes for p in disc.parameters())
    tracemalloc.start()
    try:
        with Tape():
            base = tracemalloc.get_traced_memory()[0]
            scores = [disc.forward(im) for im in ims]
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert all(s.requires_grad for s in scores)
    assert held < 0.25 * weight_bytes



def test_discriminator_backward_sums_weight_gradients_in_place():
    # Each weight gets two gradient contributions, one per forward. The tape
    # owns the first and adds the second into it a channel block at a time,
    # so the backward peaks at 1.39 copies of the weights (1.56 when each
    # step held its output and input tensors, 2.76 when the two were summed
    # into a third array).
    disc = PatchDiscriminator(make_rng(80), base_width=64)
    rng = make_rng(81)
    real, fake = (Tensor(rng.uniform(-1, 1, size=(3, 64, 64))) for _ in range(2))
    weight_bytes = sum(p.data.nbytes for p in disc.parameters())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            tape.backward(discriminator_loss(disc, real, fake))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in disc.parameters())
    assert peak - base <= 1.5 * weight_bytes

def test_discriminator_loss_detaches_generator():
    rng = make_rng(24)
    disc = PatchDiscriminator(rng, base_width=2)
    real = Tensor(rng.uniform(size=(3, 32, 32)))
    fake = Parameter(rng.uniform(size=(3, 32, 32)))
    with Tape() as tape:
        loss_d = discriminator_loss(disc, real, fake.detach())
        tape.backward(loss_d)
    assert fake.grad is None
    assert any(p.grad is not None and np.any(p.grad != 0) for p in disc.parameters())
    zero_grads(disc.parameters())


# ---------------------------------------------------------------------------
# total loss


def _set_weights(monkeypatch, **weights):
    """Give total_loss other term weights for one test."""
    for name, value in weights.items():
        monkeypatch.setitem(LOSS_WEIGHTS, name, value)


def test_total_loss_zero_when_weighted_terms_vanish(monkeypatch):
    disc = _zero_disc()
    fx = RandomConvFeatureExtractor()
    im = Tensor(make_rng(26).uniform(-1, 1, size=(3, 32, 32)))
    _set_weights(monkeypatch, adv=0.0)
    assert total_loss(im, im, fx.features(im), fx, disc)[0].item() == 0.0


def test_total_loss_reconstruction_only(monkeypatch):
    disc = _zero_disc()
    fx = RandomConvFeatureExtractor()
    rng = make_rng(28)
    a = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    b = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    _set_weights(monkeypatch, perc=0.0, style=0.0, adv=0.0)
    got = total_loss(a, b, fx.features(b), fx, disc)[0].item()
    assert abs(got - l1_reconstruction(a, b).item()) < 1e-15


def test_total_loss_linear_in_style_weight(monkeypatch):
    disc = _zero_disc()
    fx = RandomConvFeatureExtractor()
    rng = make_rng(30)
    a = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    b = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    fb = fx.features(b)
    totals = []
    for style in (0.0, 250.0, 500.0):
        _set_weights(monkeypatch, style=style, adv=0.0)
        totals.append(total_loss(a, b, fb, fx, disc)[0].item())
    base, w250, w500 = totals
    assert abs((w500 - base) - 2.0 * (w250 - base)) < 1e-9


def test_default_weights_match_training_recipe():
    # The published T-former weights (arXiv 2305.07239).
    assert LOSS_WEIGHTS == {"rec": 1.0, "perc": 1.0, "style": 250.0, "adv": 0.1}


def test_component_losses_nonnegative():
    rng = make_rng(31)
    fx = RandomConvFeatureExtractor()
    a = Tensor(rng.uniform(-1, 1, size=(3, 16, 16)))
    b = Tensor(rng.uniform(-1, 1, size=(3, 16, 16)))
    assert l1_reconstruction(a, b).item() >= 0
    fa, fb = fx.features(a), fx.features(b)
    assert perceptual_loss(fa, fb).item() >= 0
    assert style_loss(fa, fb).item() >= 0


def test_total_loss_gradient_reaches_every_generator_parameter():
    rng = make_rng(33)
    config = ModelConfig(base_channels=2, block_counts=(1,) * 7,
                         heads_per_level=(1,) * 7)
    model = InpaintingUNet(config, make_rng(34))
    disc = PatchDiscriminator(make_rng(35), base_width=2)
    fx = RandomConvFeatureExtractor()
    im = Tensor(rng.uniform(-0.5, 0.5, size=(3, 32, 32)))
    target = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    with Tape() as tape:
        out = model.forward(im)
        loss, _ = total_loss(out, target, fx.features(target), fx, disc)
        tape.backward(loss)
    dead = [p.name for p in model.parameters()
            if p.grad is None or not np.any(p.grad != 0)]
    assert dead == []


def test_frozen_discriminator_leaves_generator_gradients_unchanged():
    # train_toy clears requires_grad on the discriminator for the generator
    # step: its weights then get no gradient, and the generator's are the same
    # arrays, bit for bit.
    rng = make_rng(37)
    config = ModelConfig(base_channels=2, block_counts=(1,) * 7,
                         heads_per_level=(1,) * 7)
    model = InpaintingUNet(config, make_rng(38))
    fx = RandomConvFeatureExtractor()
    im = Tensor(rng.uniform(-0.5, 0.5, size=(3, 32, 32)))
    target = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    runs = []
    for frozen in (False, True):
        # A fresh discriminator each time: every forward advances its power
        # iteration.
        disc = PatchDiscriminator(make_rng(39), base_width=2)
        for p in disc.parameters():
            p.requires_grad = not frozen
        with Tape() as tape:
            out = model.forward(im)
            loss, _ = total_loss(out, target, fx.features(target), fx, disc)
            tape.backward(loss)
        runs.append([p.grad for p in model.parameters()])
        zero_grads(model.parameters())
        assert all((p.grad is None) == frozen for p in disc.parameters())
    assert all(np.array_equal(a, b) for a, b in zip(*runs, strict=True))


def _tensors_held_by_steps(tape):
    """The Tensors that the tape's recorded steps reach through closure cells,
    following functions, tuples, lists and dicts."""
    return reachable(tape._steps, Tensor)


def test_the_step_walk_finds_a_captured_tensor():
    # The walk reaches a tensor nested in a dict, a tuple and a list.
    p = Parameter(np.ones(3))
    box = {"held": ([p],)}

    def vjp(g, needs):
        return [g * box["held"][0][0].data]

    with Tape() as tape:
        fused_op(p.data * p.data, "probe", (p,), vjp)
        found = _tensors_held_by_steps(tape)
    assert len(found) == 1 and found[0] is p


def test_no_recorded_step_holds_a_tensor():
    # A step holds gradient slots and the arrays its backward reads, never a
    # Tensor, so no tensor outlives its last reader because of the tape. Walked
    # over a taped C=4 model forward, the discriminator loss and the generator
    # loss, nested as train_toy nests them.
    rng = make_rng(93)
    config = ModelConfig(base_channels=4, block_counts=(1,) * 7,
                         heads_per_level=(1,) * 7)
    model = InpaintingUNet(config, make_rng(94))
    disc = PatchDiscriminator(make_rng(95), base_width=4)
    fx = RandomConvFeatureExtractor()
    im = Tensor(rng.uniform(-0.5, 0.5, size=(3, 32, 32)))
    target = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    with Tape() as tg:
        out = model.forward(im)
        forward_steps = len(tg)
        with Tape() as td:
            discriminator_loss(disc, target, out.detach())
            assert len(td) > 0
            assert _tensors_held_by_steps(td) == []
        total_loss(out, target, fx.features(target), fx, disc)
        assert forward_steps > 0 and len(tg) > forward_steps
        assert _tensors_held_by_steps(tg) == []


def test_total_loss_terms_and_one_extractor_pass_per_image(monkeypatch):
    class CountingExtractor(RandomConvFeatureExtractor):
        calls = 0

        def features(self, im):
            self.calls += 1
            return super().features(im)

    rng = make_rng(37)
    disc = PatchDiscriminator(make_rng(38), base_width=2)
    fx = CountingExtractor()
    a = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    b = Tensor(rng.uniform(-1, 1, size=(3, 32, 32)))
    _set_weights(monkeypatch, rec=0.5, perc=2.0)
    fa = RandomConvFeatureExtractor().features(a)
    fb = RandomConvFeatureExtractor().features(b)
    # The ground truth's features are passed in: only the output is extracted.
    total, terms = total_loss(a, b, fb, fx, disc)
    assert fx.calls == 1
    assert sorted(terms) == ["adv", "perc", "rec", "style"]
    assert terms["rec"].item() == l1_reconstruction(a, b).item()
    assert terms["perc"].item() == perceptual_loss(fa, fb).item()
    assert terms["style"].item() == style_loss(fa, fb).item()
    want = (0.5 * terms["rec"].item() + 2.0 * terms["perc"].item()
            + 250.0 * terms["style"].item() + 0.1 * terms["adv"].item())
    assert abs(total.item() - want) <= 1e-12 * abs(want)
