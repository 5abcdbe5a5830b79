import numpy as np
import pytest

from ewflow.datasets import make_dataset
from ewflow import grids
from ewflow.grids import DensityGrid, grid_sample, grid_tv_distance, node_blocks
from ewflow.mixtures import GaussianMixture
from ewflow.rng import Rng


def _std_normal_2d():
    return GaussianMixture.create([1.0], [[0.0, 0.0]], [[1.0, 1.0]])


def test_from_mixture_normalizes():
    grid = DensityGrid.from_mixture(make_dataset("8gaussians"), 256)
    assert grid.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert np.all(grid.values >= 0)
    assert np.all(np.isfinite(grid.values))


def test_unnormalized_sampling_rejected():
    grid = DensityGrid(0, 1, 0, 1, 2.0 * np.ones((8, 8)))
    with pytest.raises(ValueError):
        grid_sample(grid, Rng(0), 10)


def test_uniform_grid_sampling_uniform_within_3_sigma():
    res = 16
    grid = DensityGrid(0, 1, 0, 1, np.ones((res, res))).normalized()
    n = 200_000
    pts = grid_sample(grid, Rng(1), n)
    iy, ix, clipped = grid.cell_index(pts)
    assert clipped == 0
    counts = np.bincount(iy * res + ix, minlength=res * res)
    p = 1.0 / (res * res)
    sigma = np.sqrt(n * p * (1 - p))
    assert np.abs(counts - n * p).max() < 3.5 * sigma


def test_point_mass_cell_sampling():
    values = np.zeros((16, 16))
    values[5, 9] = 1.0
    grid = DensityGrid(0, 1, 0, 1, values).normalized()
    pts = grid_sample(grid, Rng(2), 500)
    iy, ix, _ = grid.cell_index(pts)
    assert np.all(iy == 5) and np.all(ix == 9)


def test_grid_sample_variance_of_standard_normal():
    grid = DensityGrid.from_mixture(_std_normal_2d(), 512, pad_sigmas=8.0)
    pts = grid_sample(grid, Rng(3), 100_000)
    for d in range(2):
        assert abs(pts[:, d].var() - 1.0) < 0.03


def test_tv_self_distance_small():
    grid = DensityGrid.from_mixture(make_dataset("8gaussians"), 64)
    pts = grid_sample(grid, Rng(4), 100_000)
    assert grid_tv_distance(pts, grid) < 0.05


def test_tv_point_mass_vs_uniform():
    res = 64
    grid = DensityGrid(0, 1, 0, 1, np.ones((res, res))).normalized()
    pts = np.full((1000, 2), 0.5 / res)  # all in one corner cell
    tv = grid_tv_distance(pts, grid)
    assert tv == pytest.approx(1.0 - 1.0 / res**2, abs=1e-9)


def test_tv_disjoint_supports_is_one():
    values = np.zeros((8, 8))
    values[0, 0] = 1.0
    grid = DensityGrid(0, 1, 0, 1, values).normalized()
    pts = np.full((100, 2), 0.9)  # far cell
    assert grid_tv_distance(pts, grid) == pytest.approx(1.0)


def test_tv_reports_clipped_fraction():
    grid = DensityGrid(0, 1, 0, 1, np.ones((4, 4))).normalized()
    pts = np.array([[0.5, 0.5], [2.0, 2.0]])
    tv, clipped = grid_tv_distance(pts, grid, return_clipped=True)
    assert clipped == pytest.approx(0.5)


def test_save_load_round_trip(tmp_path):
    grid = DensityGrid.from_mixture(make_dataset("moons"), 32)
    path = tmp_path / "grid.csv"
    grid.save(path)
    back = DensityGrid.load(path)
    assert np.array_equal(back.values, grid.values)
    assert back.cell_area == pytest.approx(grid.cell_area)


def test_negative_values_rejected():
    with pytest.raises(ValueError):
        DensityGrid(0, 1, 0, 1, -np.ones((4, 4)))


@pytest.mark.parametrize(
    "n_rows, n_nodes", [(0, 10), (1, 10), (256, 4096), (257, 4096), (1100, 4096), (5, 10**9)]
)
def test_node_blocks_cover_rows_in_equal_blocks_within_byte_budget(n_rows, n_nodes):
    blocks = list(node_blocks(n_rows, n_nodes))
    rows = np.concatenate([np.arange(n_rows)[sl] for sl in blocks]) if blocks else np.empty(0)
    assert np.array_equal(rows, np.arange(n_rows))
    sizes = [sl.stop - sl.start for sl in blocks]
    assert all(size == 1 or size * n_nodes * 8 <= grids._BLOCK_BYTES for size in sizes)
    assert not sizes or (min(sizes) >= 1 and max(sizes) - min(sizes) <= 1)
    # the fewest blocks that fit
    per_block = max(1, grids._BLOCK_BYTES // (8 * n_nodes))
    assert len(blocks) == -(-n_rows // per_block)
