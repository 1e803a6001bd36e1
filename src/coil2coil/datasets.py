"""Config-driven dataset synthesis used by the CLI and evaluation runs."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pairs import combine_all
from .simulate import (
    CoilSpec,
    NoiseSpec,
    make_mask,
    make_noise_covariance,
    make_phantom,
    make_sensitivities,
    random_phantom_spec,
    synthesize_acquisition,
)

__all__ = ["SliceData", "simulate_slice", "simulate_dataset"]


@dataclass
class SliceData:
    """One training slice: acquisition plus everything needed per mode."""

    stack: np.ndarray  # (m, H, W) complex
    sens: np.ndarray  # read-only, shared by the slices of one coil geometry: copy it before writing
    psi: np.ndarray
    mask: np.ndarray
    clean: np.ndarray = None  # clean combined magnitude (N2CL, validation)
    stack_b: np.ndarray = None  # second noise realization (N2N)
    phantom: np.ndarray = None  # underlying complex image, when known


@functools.lru_cache(maxsize=1)
def _ring_sensitivities(channels, shape):
    """CoilSpec.ring(channels)'s sensitivities on an (H, W) grid, read-only: they
    belong to the array, so every slice of that geometry shares this one."""
    sens = make_sensitivities(CoilSpec.ring(channels), shape)
    sens.flags.writeable = False
    return sens


def simulate_slice(cfg, rng, with_second=False):
    """One synthetic acquisition as a SliceData (clean image included)."""
    phantom = make_phantom(random_phantom_spec(cfg["phantom"]["grid_size"], rng))
    mask = make_mask(phantom)
    sens = _ring_sensitivities(cfg["coils"]["channels"], phantom.shape)
    psi = make_noise_covariance(sens, phantom, mask, NoiseSpec(**cfg["noise"]), rng)
    stack = synthesize_acquisition(phantom, sens, psi, rng)
    clean_stack = sens * phantom[None]
    clean = combine_all(clean_stack, sens)
    stack_b = synthesize_acquisition(phantom, sens, psi, rng) if with_second else None
    return SliceData(
        stack=stack, sens=sens, psi=psi, mask=mask, clean=clean, stack_b=stack_b, phantom=phantom
    )


def simulate_dataset(cfg, n_slices, seed, with_second=False):
    """n_slices independent slices from one rng seeded with seed."""
    if n_slices < 0:
        raise ValueError(f"dataset size must be >= 0, got {n_slices}")
    rng = np.random.default_rng(seed)
    return [simulate_slice(cfg, rng, with_second=with_second) for _ in range(n_slices)]
