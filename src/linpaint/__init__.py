"""Linear-attention image inpainting at desk scale.

A self-contained numpy implementation: differentiable tensor primitives, a
Taylor-linearized attention operator with gating, a U-net style encoder-
decoder built from transformer blocks, inpainting losses with a patch
discriminator, image-quality metrics, and analytic parameter/MAC accounting.
"""

from .attention import (
    AttentionConfig,
    ProjectionSet,
    gated_attention,
    multi_head_attention,
    taylor_attention_quadratic,
    taylor_linear_attention,
    vanilla_attention,
)
from .autograd import Parameter, adamw_step, finite_diff_check, zero_grads
from .cost import calibrate_channels, cost_report, count_params
from .losses import (
    PatchDiscriminator,
    RandomConvFeatureExtractor,
    gram_matrix,
    l1_reconstruction,
    perceptual_loss,
    style_loss,
    total_loss,
)
from .metrics import ImagePair, psnr, ssim
from .netpbm import read_image, read_mask, write_image, write_mask
from .tensor import NonFiniteError, ShapeError, Tape, Tensor, make_rng
from .unet import (
    InpaintingUNet,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"
