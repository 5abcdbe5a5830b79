from dataclasses import replace

import numpy as np
import pytest

from ewflow.datasets import make_dataset
from ewflow.energies import EnergySpec, tilt_mixture
from ewflow.grids import DensityGrid, quadrature_nodes
from ewflow.mixtures import GaussianMixture, gmm_sample
from ewflow.rng import Rng


def _std_normal_1d():
    return GaussianMixture.create([1.0], [[0.0]], [[1.0]])


def test_linear_normalization_is_gaussian_mgf():
    # E[exp(-beta x)] under N(0,1) = exp(beta^2 / 2)
    for beta in (0.5, 1.0, 2.0):
        z = np.exp(tilt_mixture(_std_normal_1d(), EnergySpec.linear([1.0], beta))[1])
        assert z == pytest.approx(np.exp(beta**2 / 2), rel=1e-12)
    z1 = np.exp(tilt_mixture(_std_normal_1d(), EnergySpec.linear([1.0], 1.0))[1])
    assert z1 == pytest.approx(1.64872, abs=1e-5)


def test_quadratic_normalization():
    z = np.exp(tilt_mixture(_std_normal_1d(), EnergySpec.quadratic([1.0], 1.0))[1])
    assert z == pytest.approx(2.0**-0.5, rel=1e-12)
    assert z == pytest.approx(0.70711, abs=1e-5)


def test_tabulated_energy_z_matches_monte_carlo():
    gmm = make_dataset("8gaussians")
    # tabulate E(x) = |x - (4,0)|^2 / 8 on a grid, then compare quadrature Z
    # against a Monte Carlo estimate over p0 draws
    table = DensityGrid.from_fn(
        lambda p: ((p - np.array([4.0, 0.0])) ** 2).sum(-1) / 8.0,
        bounds=((-8.0, 8.0), (-8.0, 8.0)),
        resolution=256,
        normalize=False,
    )
    energy = EnergySpec.from_table(table, beta=1.0, classifier=True)
    z_quad = np.exp(quadrature_nodes(gmm, energy).log_z)
    rng = Rng(11)
    x = gmm_sample(gmm, rng, 10**6)
    vals = np.exp(-energy.beta * np.asarray(energy(x)))
    z_mc = vals.mean()
    se = vals.std() / np.sqrt(len(vals))
    assert abs(z_quad - z_mc) < 3 * se + 1e-4


def test_divergent_quadratic_tilt_raises():
    energy = EnergySpec.quadratic([-1.0], 2.0)  # inverted parabola, beta too large
    with pytest.raises(ValueError, match="diverges"):
        tilt_mixture(_std_normal_1d(), energy)


def test_tilt_closed_forms():
    # N(0,1) * exp(-x) ~ N(-1, 1); N(0,1) * exp(-x^2/2) ~ N(0, 1/2)
    tilted, log_z = tilt_mixture(_std_normal_1d(), EnergySpec.linear([1.0], 1.0))
    assert tilted.means[0, 0] == pytest.approx(-1.0)
    assert tilted.variances[0, 0] == pytest.approx(1.0)
    assert log_z == pytest.approx(0.5)
    tilted, log_z = tilt_mixture(_std_normal_1d(), EnergySpec.quadratic([1.0], 1.0))
    assert tilted.means[0, 0] == pytest.approx(0.0)
    assert tilted.variances[0, 0] == pytest.approx(0.5)


def test_shift_changes_z_but_not_tilted_law():
    gmm = make_dataset("bimodal1d")
    energy = EnergySpec.quadratic([0.5], 1.5, center=[1.0])
    shifted = replace(energy, shift=energy.shift - 0.7)  # energy + 0.7
    t0, lz0 = tilt_mixture(gmm, energy)
    t1, lz1 = tilt_mixture(gmm, shifted)
    assert lz1 == pytest.approx(lz0 - 1.5 * 0.7, rel=1e-12)
    assert np.allclose(t0.weights, t1.weights, atol=1e-14)
    assert np.allclose(t0.means, t1.means)
    assert np.allclose(t0.variances, t1.variances)


@pytest.mark.parametrize(
    "energy, data, message",
    [
        (EnergySpec.quadratic([1.0, 1.0], beta=1.0, center=[0.0, 3.0]), "gauss1d", "a 2-D energy"),
        (EnergySpec.quadratic([0.25], beta=1.0, center=[2.0]), "bimodal2d", "a 1-D energy"),
        (EnergySpec.linear([1.0, 0.0], beta=1.0), "bimodal1d", "a 2-D energy"),
    ],
    ids=["quadratic-2d-on-1d", "quadratic-1d-on-2d", "linear-2d-on-1d"],
)
def test_energy_of_another_dimension_names_both(energy, data, message):
    gmm = make_dataset(data)
    with pytest.raises(ValueError, match=f"{message} cannot score {gmm.dim}-D points"):
        energy(np.zeros((3, gmm.dim)))
    with pytest.raises(ValueError, match=f"{message} cannot tilt a {gmm.dim}-D mixture"):
        tilt_mixture(gmm, energy)


def test_classifier_energy_validation():
    with pytest.raises(ValueError, match="linear"):
        EnergySpec("linear", 1.0, a=[1.0], classifier=True)
    quad = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[2.0, 0.0], classifier=True)
    p = quad.prob_c(np.array([[2.0, 0.0], [100.0, 0.0]]))
    assert p[0] == pytest.approx(1.0)
    assert p[1] >= 1e-12  # clamped away from zero
    with pytest.raises(ValueError, match="classifier"):
        EnergySpec.quadratic([0.25], 1.0).prob_c(np.zeros((1, 1)))


def test_grid_energy_bilinear_interpolation():
    table = DensityGrid.from_fn(
        lambda p: p[:, 0] + 2.0 * p[:, 1], ((0.0, 1.0), (0.0, 1.0)), 64, normalize=False
    )
    energy = EnergySpec.from_table(table, beta=1.0)
    pts = Rng(3).uniform(0.05, 0.95, (50, 2))
    want = pts[:, 0] + 2.0 * pts[:, 1]
    assert np.abs(np.asarray(energy(pts)) - want).max() < 1e-2


def test_log_normalization_constant_on_grid_base():
    base = DensityGrid.from_mixture(make_dataset("bimodal2d"), 128)
    energy = EnergySpec.quadratic([0.25, 0.25], 1.0, center=[2.0, 0.0])
    lz_grid = quadrature_nodes(base, energy).log_z
    lz_exact = tilt_mixture(make_dataset("bimodal2d"), energy)[1]
    assert lz_grid == pytest.approx(lz_exact, abs=1e-3)
