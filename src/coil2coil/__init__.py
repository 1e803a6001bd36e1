"""Self-supervised MR image denoising from phased-array coil data.

Pipeline: simulate multi-channel acquisitions, split the channels into two
matched-filter combinations, whiten the pair's noise and normalize coil
sensitivity so the two share one noise-free image, train a residual
convolutional denoiser on the pairs, and denoise channel-combined images
at inference time.
"""

__version__ = "0.1.0"
