"""Training objective: reconstruction, perceptual, style and adversarial terms.

The perceptual and style terms compare the feature lists of two images.
:func:`total_loss` takes any feature extractor object with a
``features(image) -> list[Tensor]`` method and runs it on the output; the
ground truth's features are passed in, since a training run computes them once.
Pretrained backbones are out of scope here, so a deterministic random-weight
convolutional extractor stands in; it exercises the exact same loss plumbing.
The adversarial term uses a patch discriminator whose convolution weights are
spectrally normalized via power iteration.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .autograd import Module, Parameter
from .tensor import (
    ShapeError,
    Tensor,
    absolute,
    add,
    conv2d,
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
    transpose,
)
from .unet import IMAGE_CHANNELS

__all__ = [
    "LOSS_WEIGHTS",
    "RandomConvFeatureExtractor",
    "l1_reconstruction",
    "perceptual_loss",
    "gram_matrix",
    "style_loss",
    "power_iteration_sigma",
    "PatchDiscriminator",
    "discriminator_loss",
    "generator_adversarial_loss",
    "total_loss",
]

# The weight of each generator-side term in the total, by the term's name:
# the published T-former values (arXiv 2305.07239).
LOSS_WEIGHTS = {"rec": 1.0, "perc": 1.0, "style": 250.0, "adv": 0.1}

# The random extractor's seed, its stage widths, and the factor its feature
# maps are reported at.
_FEATURE_SEED = 101
_FEATURE_WIDTHS = (8, 16, 32)
_FEATURE_GAIN = 0.1

# Power-iteration steps each discriminator layer runs when it is built; every
# forward then runs one more.
_INIT_POWER_ITERS = 60

# Norms below this make the spectral-norm estimate 0: the weight is used
# undivided.
_SIGMA_FLOOR = 1e-12


class RandomConvFeatureExtractor:
    """Fixed-seed random strided convolutions; deterministic and frozen.

    Weights are plain tensors, not parameters: gradients flow through the
    stages to the image but the extractor itself is never trained. Reported
    feature maps are scaled by ``_FEATURE_GAIN`` so the Gram magnitudes stay
    in the range the published style weight (250) was tuned for.
    """

    def __init__(self) -> None:
        rng = make_rng(_FEATURE_SEED)
        self.layers: list[tuple[Tensor, Tensor]] = []
        cin = IMAGE_CHANNELS
        for cout in _FEATURE_WIDTHS:
            std = math.sqrt(2.0 / (cin * 9))
            w = Tensor(rng.normal(0.0, std, size=(cout, cin, 3, 3)))
            b = Tensor(np.zeros(cout))
            self.layers.append((w, b))
            cin = cout

    def features(self, im: Tensor) -> list[Tensor]:
        feats = []
        x = im
        for w, b in self.layers:
            x = leaky_relu(conv2d(x, w, b, stride=2, padding=1))
            feats.append(scale(x, _FEATURE_GAIN))
        return feats


def l1_reconstruction(i_out: Tensor, i_g: Tensor) -> Tensor:
    """Mean absolute difference over all elements."""
    if i_out.shape != i_g.shape:
        raise ShapeError(f"shape mismatch: {i_out.shape} vs {i_g.shape}")
    return mean_all(absolute(sub(i_out, i_g)))


def perceptual_loss(feats_out: list[Tensor], feats_g: list[Tensor]) -> Tensor:
    """Sum over stages of the per-element mean absolute feature difference."""
    return reduce(add, (mean_all(absolute(sub(f_out, f_g)))
                        for f_out, f_g in zip(feats_out, feats_g)))


def gram_matrix(feat: Tensor) -> Tensor:
    """Channel co-activation matrix: G[a,b] = sum_hw F[a]F[b] / (C*H*W)."""
    if feat.data.ndim != 3:
        raise ShapeError(f"gram_matrix needs CxHxW, got {feat.shape}")
    c, h, w = feat.shape
    flat = reshape(feat, (c, h * w))
    return scale(matmul(flat, transpose(flat)), 1.0 / (c * h * w))


def style_loss(feats_out: list[Tensor], feats_g: list[Tensor]) -> Tensor:
    """Mean over stages of the entrywise L1 distance between Gram matrices."""
    terms = [sum_all(absolute(sub(gram_matrix(f_out), gram_matrix(f_g))))
             for f_out, f_g in zip(feats_out, feats_g)]
    return scale(reduce(add, terms), 1.0 / len(terms))


# ---------------------------------------------------------------------------
# Spectral normalization


def power_iteration_sigma(w: np.ndarray, u: np.ndarray) -> float:
    """One power-iteration step: the largest-singular-value estimate of ``w``.

    ``u`` is the unit left singular-vector estimate; it is advanced in place.
    Returns 0.0, leaving ``u`` as it was, for an effectively zero matrix.
    """
    if w.ndim != 2:
        raise ShapeError(f"power iteration needs a matrix, got shape {w.shape}")
    v = w.T @ u
    nv = np.linalg.norm(v)
    if nv < _SIGMA_FLOOR:
        return 0.0
    v /= nv
    wv = w @ v
    nu = np.linalg.norm(wv)
    if nu < _SIGMA_FLOOR:
        return 0.0
    np.divide(wv, nu, out=u)
    return float(u @ wv)


# ---------------------------------------------------------------------------
# Patch discriminator


class PatchDiscriminator(Module):
    """Stride-2 convolution stack scoring local patches, not a single scalar.

    Four stages of ``base_width`` channels doubling per stage (64 -> 128 ->
    256 -> 512 at the default ``disc_width``) with kernel 4 and leaky-ReLU
    slope 0.2, then a 1-channel scoring convolution. Every convolution weight
    is divided by its spectral-norm estimate at call time, after one
    power-iteration step; the estimate is treated as a constant in the
    backward pass.
    """

    def __init__(self, rng: np.random.Generator, base_width: int) -> None:
        self.layers: list[tuple[Parameter, Parameter, np.ndarray, int]] = []
        stages = [(f"disc.conv{i}", base_width * 2 ** i, 2) for i in range(4)]
        cin = IMAGE_CHANNELS
        for tag, cout, stride in stages + [("disc.score", 1, 1)]:
            std = math.sqrt(2.0 / (cin * 16))
            w = Parameter(rng.normal(0.0, std, size=(cout, cin, 4, 4)), name=f"{tag}.w")
            b = Parameter(np.zeros(cout), name=f"{tag}.b")
            u = rng.normal(size=cout)
            u /= np.linalg.norm(u)
            # Converge u up front so the very first sigma estimates are accurate.
            for _ in range(_INIT_POWER_ITERS):
                power_iteration_sigma(w.data.reshape(cout, -1), u)
            self.layers.append((w, b, u, stride))
            cin = cout

    def forward(self, im: Tensor) -> Tensor:
        x = im
        last = len(self.layers) - 1
        for i, (w, b, u, stride) in enumerate(self.layers):
            sigma = power_iteration_sigma(w.data.reshape(w.shape[0], -1), u)
            w_used = scale(w, 1.0 / sigma) if sigma > _SIGMA_FLOOR else w
            x = conv2d(x, w_used, b, stride=stride, padding=1)
            if i != last:
                x = leaky_relu(x)
        return x


# ---------------------------------------------------------------------------
# Adversarial terms (non-saturating, logistic scores, logs clamped at 1e-12)


def _mean_log_sigmoid(scores: Tensor) -> Tensor:
    return mean_all(log_clamped(sigmoid(scores)))


def discriminator_loss(disc: PatchDiscriminator, real: Tensor,
                       fake_detached: Tensor) -> Tensor:
    """-[mean log s(D(real)) + mean log(1 - s(D(fake)))]; fake must be detached."""
    term_real = _mean_log_sigmoid(disc.forward(real))
    term_fake = _mean_log_sigmoid(scale(disc.forward(fake_detached), -1.0))
    return scale(add(term_real, term_fake), -1.0)


def generator_adversarial_loss(disc: PatchDiscriminator, fake: Tensor) -> Tensor:
    """-mean log s(D(fake)): the non-saturating generator objective."""
    return scale(_mean_log_sigmoid(disc.forward(fake)), -1.0)


def total_loss(i_out: Tensor, i_g: Tensor, feats_g: list[Tensor], fx,
               disc: PatchDiscriminator) -> tuple[Tensor, dict[str, Tensor]]:
    """The four generator-side terms summed with :data:`LOSS_WEIGHTS`, and the
    terms by name.

    ``feats_g`` is ``fx.features(i_g)``; ``fx.features`` runs once, on
    ``i_out``, and the perceptual and style terms share both feature lists.
    """
    feats_out = fx.features(i_out)
    terms = {
        "rec": l1_reconstruction(i_out, i_g),
        "perc": perceptual_loss(feats_out, feats_g),
        "style": style_loss(feats_out, feats_g),
        "adv": generator_adversarial_loss(disc, i_out),
    }
    total = reduce(add, (scale(term, LOSS_WEIGHTS[name]) for name, term in terms.items()))
    return total, terms
