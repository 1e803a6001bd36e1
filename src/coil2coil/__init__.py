"""Self-supervised MR image denoising from phased-array coil data.

Pipeline: simulate multi-channel acquisitions, split the channels into two
matched-filter combinations, whiten the pair's noise and normalize coil
sensitivity so the two share one noise-free image, train a residual
convolutional denoiser on the pairs, and denoise channel-combined images
at inference time.
"""

from .imaging import (
    coil_combine,
    effective_sensitivity,
    propagate_noise_stats,
)
from .network import NetworkConfig, gradient_check, init_network
from .pairs import (
    ChannelSplit,
    TrainingPair,
    combine_all,
    make_training_pair,
    split_channels,
    whitening_coefficients,
)
from .train import (
    TrainConfig,
    c2c_loss,
    denoise,
    denoise_image,
    denoise_two_group_average,
    train,
)

__version__ = "0.1.0"
