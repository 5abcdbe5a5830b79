"""Catalog of synthetic target densities, all expressed as Gaussian mixtures.

Curve-shaped sets (spirals, moons, ring) are approximated by many small
isotropic components along the curve; checkerboard by sub-Gaussians inside
the active squares.  Mixture form keeps every dataset's noisy marginals and
guided variants exactly computable.
"""

from __future__ import annotations

import numpy as np

from .mixtures import GaussianMixture

__all__ = ["make_dataset", "DATASETS"]


def _eight_gaussians() -> GaussianMixture:
    ang = 2.0 * np.pi * np.arange(8) / 8
    means = 4.0 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return GaussianMixture.create(np.ones(8), means, np.full((8, 2), 0.25))


def _twentyfive_gaussians() -> GaussianMixture:
    g = np.linspace(-4.0, 4.0, 5)
    means = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    return GaussianMixture.create(np.ones(25), means, np.full((25, 2), 0.09))


def _ring() -> GaussianMixture:
    k = 32
    ang = 2.0 * np.pi * np.arange(k) / k
    means = 3.0 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return GaussianMixture.create(np.ones(k), means, np.full((k, 2), 0.09))


def _two_spirals() -> GaussianMixture:
    k = 32
    s = np.linspace(0.25, 1.0, k)
    theta = 3.0 * np.pi * s
    r = 4.0 * s
    arm = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    means = np.concatenate([arm, -arm], axis=0)
    return GaussianMixture.create(np.ones(2 * k), means, np.full((2 * k, 2), 0.0625))


def _moons() -> GaussianMixture:
    k = 16
    th = np.linspace(0.0, np.pi, k)
    upper = np.stack([2.0 * np.cos(th), 2.0 * np.sin(th) - 0.6], axis=-1)
    lower = np.stack([2.0 - 2.0 * np.cos(th), 0.6 - 2.0 * np.sin(th)], axis=-1)
    means = np.concatenate([upper, lower], axis=0)
    return GaussianMixture.create(np.ones(2 * k), means, np.full((2 * k, 2), 0.0625))


def _checkerboard() -> GaussianMixture:
    means = []
    sub = np.linspace(-1.0, 1.0, 2)
    for sq_x in range(-2, 2):
        for sq_y in range(-2, 2):
            if (sq_x + sq_y) % 2 == 0:
                continue
            cx, cy = 2.0 * sq_x + 1.0, 2.0 * sq_y + 1.0
            for ox in sub:
                for oy in sub:
                    means.append([cx + 0.5 * ox, cy + 0.5 * oy])
    means = np.array(means)
    return GaussianMixture.create(np.ones(len(means)), means, np.full((len(means), 2), 0.16))


def _gauss_1d() -> GaussianMixture:
    return GaussianMixture.create([1.0], [[0.0]], [[1.0]])


def _bimodal_1d() -> GaussianMixture:
    return GaussianMixture.create([0.5, 0.5], [[-2.0], [2.0]], [[0.25], [0.25]])


def _bimodal_2d() -> GaussianMixture:
    return GaussianMixture.create(
        [0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], [[0.25, 0.25], [0.25, 0.25]]
    )


DATASETS = {
    "gauss1d": _gauss_1d,
    "bimodal1d": _bimodal_1d,
    "bimodal2d": _bimodal_2d,
    "8gaussians": _eight_gaussians,
    "25gaussians": _twentyfive_gaussians,
    "ring": _ring,
    "2spirals": _two_spirals,
    "moons": _moons,
    "checkerboard": _checkerboard,
}


def make_dataset(name: str) -> GaussianMixture:
    try:
        return DATASETS[name]()
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}") from None
