"""Config-driven dataset synthesis used by the CLI and evaluation runs."""

from __future__ import annotations

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

__all__ = ["SliceData", "coil_spec_from_config", "simulate_slice", "simulate_dataset"]


@dataclass
class SliceData:
    """One training slice: acquisition plus everything needed per mode."""

    stack: np.ndarray  # (m, H, W) complex
    sens: np.ndarray
    psi: np.ndarray
    mask: np.ndarray
    clean: np.ndarray = None  # clean combined magnitude (N2CL, validation)
    stack_b: np.ndarray = None  # second noise realization (N2N)
    phantom: np.ndarray = None  # underlying complex image, when known


def coil_spec_from_config(cfg):
    c = cfg["coils"]
    phases = None if c["use_phases"] else (0.0,) * c["channels"]
    return CoilSpec.ring(c["channels"], radius=c["radius"], falloff=c["falloff"], phases=phases)


def simulate_slice(cfg, rng, sigma=None, with_second=False):
    """One synthetic acquisition as a SliceData (clean image included)."""
    p = cfg["phantom"]
    noise_cfg = cfg["noise"]
    grid = p["grid_size"]
    spec = random_phantom_spec(grid, rng, (p["n_ellipses_min"], p["n_ellipses_max"]))
    phantom = make_phantom(spec)
    mask = make_mask(phantom, p["mask_threshold"])
    coil = coil_spec_from_config(cfg)
    sens = make_sensitivities(coil, phantom.shape)
    nspec = NoiseSpec(
        sigma=noise_cfg["sigma"] if sigma is None else sigma,
        rho_min=noise_cfg["rho_min"],
        rho_max=noise_cfg["rho_max"],
    )
    psi = make_noise_covariance(sens, phantom, mask, nspec, rng)
    stack = synthesize_acquisition(phantom, sens, psi, rng)
    clean_stack = sens * phantom[None]
    clean = combine_all(clean_stack, sens)
    stack_b = synthesize_acquisition(phantom, sens, psi, rng) if with_second else None
    return SliceData(
        stack=stack, sens=sens, psi=psi, mask=mask, clean=clean, stack_b=stack_b, phantom=phantom
    )


def simulate_dataset(cfg, n_slices, seed, sigma=None, with_second=False):
    rng = np.random.default_rng(seed)
    return [simulate_slice(cfg, rng, sigma=sigma, with_second=with_second) for _ in range(n_slices)]
