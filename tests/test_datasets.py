import numpy as np
import pytest

from ewflow.datasets import DATASETS, make_dataset
from ewflow.grids import DensityGrid, mixture_bounds
from ewflow.mixtures import gmm_density


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_catalog_entries_are_valid_mixtures(name):
    gmm = make_dataset(name)
    assert abs(gmm.weights.sum() - 1.0) < 1e-12
    assert np.all(gmm.variances > 0)
    assert gmm.dim in (1, 2)


@pytest.mark.parametrize("name", [n for n in sorted(DATASETS) if make_dataset(n).dim == 2])
def test_2d_datasets_integrate_to_one_on_padded_grid(name):
    gmm = make_dataset(name)
    bounds = mixture_bounds(gmm, pad_sigmas=4.0)
    raw = DensityGrid.from_fn(lambda p: gmm_density(gmm, p), bounds, 256, normalize=False)
    assert raw.total_mass() == pytest.approx(1.0, abs=1e-3)


def test_unknown_dataset():
    with pytest.raises(KeyError, match="unknown dataset"):
        make_dataset("nope")
