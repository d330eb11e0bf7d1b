import math

import numpy as np
import pytest

from linpaint.metrics import ImagePair, psnr, ssim
from linpaint.tensor import make_rng


def test_psnr_identical_is_infinite():
    im = make_rng(0).uniform(size=(3, 8, 8))
    assert psnr(ImagePair(im, im)) == math.inf


def test_psnr_uniform_one_255th_error():
    rng = make_rng(1)
    ref = rng.uniform(0.0, 1.0 - 1.0 / 255.0, size=(3, 16, 16))
    pair = ImagePair(ref, ref + 1.0 / 255.0)
    assert abs(psnr(pair) - 20.0 * math.log10(255.0)) <= 1e-3
    assert abs(psnr(pair) - 48.1308) <= 1e-3


def test_psnr_monotone_in_noise():
    rng = make_rng(2)
    ref = rng.uniform(0.25, 0.75, size=(3, 12, 12))
    values = []
    for amp in (0.01, 0.05, 0.1, 0.2):
        noise = amp * np.sign(rng.normal(size=ref.shape))
        values.append(psnr(ImagePair(ref, ref + noise)))
    assert values == sorted(values, reverse=True)


def test_psnr_symmetric_and_permutation_invariant():
    rng = make_rng(3)
    a = rng.uniform(size=(3, 6, 6))
    b = rng.uniform(size=(3, 6, 6))
    assert psnr(ImagePair(a, b)) == psnr(ImagePair(b, a))
    perm = rng.permutation(36)
    ap = a.reshape(3, -1)[:, perm].reshape(3, 6, 6)
    bp = b.reshape(3, -1)[:, perm].reshape(3, 6, 6)
    assert abs(psnr(ImagePair(a, b)) - psnr(ImagePair(ap, bp))) < 1e-12


def test_pair_clamps_and_validates():
    pair = ImagePair(np.full((3, 4, 4), 2.0), np.full((3, 4, 4), -1.0))
    assert np.all(pair.reference == 1.0) and np.all(pair.candidate == 0.0)
    with pytest.raises(ValueError):
        ImagePair(np.zeros((3, 4, 4)), np.zeros((3, 4, 5)))


def test_ssim_identical_is_exactly_one():
    im = make_rng(4).uniform(size=(3, 16, 16))
    assert ssim(ImagePair(im, im)) == 1.0


def test_ssim_negative_image_scores_low():
    rng = make_rng(5)
    im = np.clip(0.5 + 0.3 * rng.normal(size=(3, 24, 24)), 0, 1)
    assert ssim(ImagePair(im, 1.0 - im)) < 0.2


def test_ssim_constant_images_closed_form():
    a, b = 0.2, 0.6
    pair = ImagePair(np.full((3, 16, 16), a), np.full((3, 16, 16), b))
    c1 = 0.01**2
    want = (2 * a * b + c1) / (a * a + b * b + c1)  # structure term is exactly 1
    got = ssim(pair)
    assert abs(got - want) <= 1e-9
    assert 0.0 < got < 1.0


def test_ssim_rejects_tiny_images():
    with pytest.raises(ValueError):
        ssim(ImagePair(np.zeros((3, 8, 8)), np.zeros((3, 8, 8))), window=11)

