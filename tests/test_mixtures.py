import numpy as np
import pytest

from ewflow.datasets import make_dataset
from ewflow.mixtures import GaussianMixture, gmm_density, gmm_logpdf, gmm_sample, gmm_score, path_marginal
from ewflow.paths import PathSchedule
from ewflow.rng import Rng


def test_standard_normal_peak():
    gmm = GaussianMixture.create([1.0], [[0.0]], [[1.0]])
    assert gmm_density(gmm, np.array([0.0])) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)


def test_two_component_symmetry_point():
    gmm = GaussianMixture.create([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
    want = np.exp(-0.5) / np.sqrt(2 * np.pi)
    assert gmm_density(gmm, np.array([0.0])) == pytest.approx(want, abs=1e-12)


def test_eight_gaussians_mode_densities_equal():
    gmm = make_dataset("8gaussians")
    vals = gmm_density(gmm, gmm.means)
    assert np.ptp(vals) < 1e-12


def test_density_integrates_to_one():
    gmm = GaussianMixture.create([0.4, 0.6], [[-1.0], [2.0]], [[0.5], [1.5]])
    xs = np.linspace(-14, 14, 20001)[:, None]  # +-8 sigma around the extreme means
    h = xs[1, 0] - xs[0, 0]
    assert gmm_density(gmm, xs).sum() * h == pytest.approx(1.0, abs=1e-3)


def test_dimension_mismatch_raises():
    gmm = make_dataset("8gaussians")
    with pytest.raises(ValueError):
        gmm_density(gmm, np.zeros(3))


def test_invalid_mixtures_rejected():
    with pytest.raises(ValueError):
        GaussianMixture([0.5, 0.6], [[0.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [[1.0], [0.0]])


def test_sampling_moments_single_component():
    gmm = GaussianMixture.create([1.0], [[3.0]], [[1.0]])
    x = gmm_sample(gmm, Rng(1), 100_000)
    assert abs(x.mean() - 3.0) < 0.02


def test_sampling_degenerate_weights():
    gmm = GaussianMixture.create([1.0, 0.0], [[0.0], [100.0]], [[1.0], [1.0]])
    x = gmm_sample(gmm, Rng(2), 100)
    assert np.all(np.abs(x) < 10)


def test_eight_gaussians_mode_counts_within_multinomial_bounds():
    gmm = make_dataset("8gaussians")
    n = 100_000
    x = gmm_sample(gmm, Rng(3), n)
    # assign each sample to the nearest mode
    d2 = ((x[:, None, :] - gmm.means[None]) ** 2).sum(-1)
    counts = np.bincount(d2.argmin(axis=1), minlength=8)
    p = 1.0 / 8.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 3 * sigma)


def test_score_matches_finite_difference():
    gmm = make_dataset("bimodal2d")
    x = Rng(4).normal((20, 2)) * 2
    s = gmm_score(gmm, x)
    h = 1e-6
    for d in range(2):
        dx = np.zeros(2)
        dx[d] = h
        fd = (gmm_logpdf(gmm, x + dx) - gmm_logpdf(gmm, x - dx)) / (2 * h)
        assert np.abs(s[:, d] - fd).max() < 1e-6


def test_path_marginal_matches_perturbation_sampling():
    gmm = make_dataset("bimodal1d")
    sched = PathSchedule.ot()
    t = 0.4
    marg = path_marginal(gmm, sched, t)
    rng = Rng(5)
    x0 = gmm_sample(gmm, rng, 200_000)
    eps = rng.normal(x0.shape)
    x_t = float(sched.mu(t)) * x0 + float(sched.sigma(t)) * eps
    want_mean = float(marg.weights @ marg.means[:, 0])
    second = marg.weights @ (marg.variances[:, 0] + marg.means[:, 0] ** 2)
    want_var = float(second - want_mean**2)
    assert abs(x_t.mean() - want_mean) < 0.02
    assert abs(x_t.var() - want_var) < 0.02


def test_mixture_arrays_immutable():
    gmm = make_dataset("ring")
    with pytest.raises(ValueError):
        gmm.means[0, 0] = 99.0
