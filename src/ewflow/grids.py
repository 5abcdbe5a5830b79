"""2D density grids, quadrature node sets, cell sampling, and TV distance."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mixtures import GaussianMixture, gmm_density, gmm_logpdf
from .rng import Rng

__all__ = ["DensityGrid", "QuadratureNodes", "quadrature_nodes", "node_blocks", "grid_sample", "grid_tv_distance"]

# Bytes of one (rows, nodes) float64 block in every Gaussian-kernel loop over
# a node set, so the memory of a quadrature call is set by this budget and not
# by the number of query points or nodes.
_BLOCK_BYTES = 8 * 2**20

# Padding of every mixture node set's box beyond the component means, in the
# largest standard deviation of p0: the mass outside is 2 Phi(-8) ~ 1.2e-15
# per component per axis.  A grid energy has no closed tilt, so E cannot enter.
_NODE_BOX_SIGMAS = 8.0


@dataclass
class DensityGrid:
    """Nonnegative values on an n x n grid of cell centers over a rectangle.

    values[i, j] is the density at center (xs[j], ys[i]); row-major over y.
    A normalized grid satisfies sum(values) * cell_area == 1.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("grid values must be 2D")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("grid values must be finite and nonnegative")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid bounds must be nondegenerate")
        self.values = v

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def cell_area(self) -> float:
        return ((self.x_max - self.x_min) / self.nx) * ((self.y_max - self.y_min) / self.ny)

    @property
    def xs(self) -> np.ndarray:
        h = (self.x_max - self.x_min) / self.nx
        return self.x_min + h * (np.arange(self.nx) + 0.5)

    @property
    def ys(self) -> np.ndarray:
        h = (self.y_max - self.y_min) / self.ny
        return self.y_min + h * (np.arange(self.ny) + 0.5)

    def centers(self) -> np.ndarray:
        """All cell centers as an (nx*ny, 2) array, row-major over y."""
        XX, YY = np.meshgrid(self.xs, self.ys)
        return np.stack([XX.ravel(), YY.ravel()], axis=-1)

    def masses(self) -> np.ndarray:
        return self.values * self.cell_area

    def total_mass(self) -> float:
        return float(self.values.sum() * self.cell_area)

    def normalized(self) -> "DensityGrid":
        total = self.total_mass()
        if total <= 0:
            raise ValueError("cannot normalize a grid with zero mass")
        return DensityGrid(self.x_min, self.x_max, self.y_min, self.y_max, self.values / total)

    def cell_index(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Map points to (row, col) cell indices, clipping points outside the
        bounds to the nearest boundary cell; returns the clipped fraction."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ix = np.floor((pts[:, 0] - self.x_min) / (self.x_max - self.x_min) * self.nx).astype(int)
        iy = np.floor((pts[:, 1] - self.y_min) / (self.y_max - self.y_min) * self.ny).astype(int)
        outside = (ix < 0) | (ix >= self.nx) | (iy < 0) | (iy >= self.ny)
        clipped = float(outside.mean()) if len(pts) else 0.0
        return np.clip(iy, 0, self.ny - 1), np.clip(ix, 0, self.nx - 1), clipped

    @staticmethod
    def from_fn(fn, bounds, resolution: int = 256, normalize: bool = True) -> "DensityGrid":
        """Evaluate a density callable at cell centers (midpoint rule)."""
        (x_min, x_max), (y_min, y_max) = bounds
        grid = DensityGrid(x_min, x_max, y_min, y_max, np.zeros((resolution, resolution)))
        vals = np.asarray(fn(grid.centers()), dtype=float).reshape(resolution, resolution)
        grid.values = np.maximum(vals, 0.0)
        return grid.normalized() if normalize else grid

    @staticmethod
    def from_mixture(
        gmm: GaussianMixture, resolution: int = 256, pad_sigmas: float = 4.0
    ) -> "DensityGrid":
        """Grid over the mixture's bounding box expanded by pad_sigmas * max stddev."""
        if gmm.dim != 2:
            raise ValueError("density grids are 2D only")
        bounds = mixture_bounds(gmm, pad_sigmas)
        return DensityGrid.from_fn(lambda p: gmm_density(gmm, p), bounds, resolution)

    def save(self, path) -> None:
        """One JSON header line, then row-major CSV of values."""
        header = json.dumps(
            {
                "bounds": [[self.x_min, self.x_max], [self.y_min, self.y_max]],
                "resolution": [self.ny, self.nx],
                "cell_area": self.cell_area,
            }
        )
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in self.values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    @staticmethod
    def load(path) -> "DensityGrid":
        with open(path) as fh:
            header = json.loads(fh.readline())
            rows = [list(map(float, line.split(","))) for line in fh if line.strip()]
        (x_min, x_max), (y_min, y_max) = header["bounds"]
        values = np.array(rows)
        if list(values.shape) != header["resolution"]:
            raise ValueError(f"value shape {values.shape} != declared {header['resolution']}")
        return DensityGrid(x_min, x_max, y_min, y_max, values)


def mixture_bounds(gmm: GaussianMixture, pad_sigmas: float = 4.0):
    max_sigma = float(np.sqrt(gmm.variances.max()))
    pad = pad_sigmas * max_sigma
    lo = gmm.means.min(axis=0) - pad
    hi = gmm.means.max(axis=0) + pad
    return tuple(zip(lo, hi))


@dataclass(frozen=True)
class QuadratureNodes:
    """Midpoint-rule nodes of a base density p0 with an energy E on them.

    Every node set is a tensor grid: axes holds its 1-D coordinate arrays,
    (xs, ys) in 2D or (line,) in 1D.  points (N, d) are the node positions,
    row-major with y the slow axis, so log_mass.reshape(len(ys), len(xs)) is
    the 2D weight grid; log_mass (N,) is the log of each node's normalized p0
    mass, cell_area the volume of one cell, energy (N,) E at each node, and
    log_z = log sum_n mass_n exp(-beta E_n), the quadrature value of
    log E_{p0}[exp(-beta E)].
    """

    axes: tuple
    points: np.ndarray
    log_mass: np.ndarray
    cell_area: float
    energy: np.ndarray
    log_z: float


def quadrature_nodes(base, energy, grid_res: int = 256) -> QuadratureNodes:
    """Node set of a DensityGrid (its own cells) or of a 1D or 2D mixture:
    grid_res^2 midpoint cells over the mixture's box (_NODE_BOX_SIGMAS on
    every axis), grid_res per axis in 2D and grid_res^2 on the line in 1D."""
    if isinstance(base, DensityGrid):
        axes = (base.xs, base.ys)
        points, mass, area = base.centers(), base.masses().ravel(), base.cell_area
    elif not isinstance(base, GaussianMixture):
        raise TypeError(f"unsupported base distribution {type(base).__name__}")
    elif base.dim in (1, 2):
        n = grid_res if base.dim == 2 else grid_res * grid_res  # grid_res^2 nodes either way
        box = mixture_bounds(base, _NODE_BOX_SIGMAS)
        steps = [(hi - lo) / n for lo, hi in box]
        axes = tuple(lo + h * (np.arange(n) + 0.5) for (lo, _), h in zip(box, steps))
        points = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
        area = float(np.prod(steps))
        dens = np.exp(gmm_logpdf(base, points))
        mass = dens * area / (dens * area).sum()
    else:
        raise ValueError("quadrature nodes are only built for 1D or 2D bases")
    log_mass = np.log(np.maximum(mass, 1e-300))
    e = np.asarray(energy(points), dtype=float)
    if not np.all(np.isfinite(e)):
        raise ValueError("energy is not finite on the quadrature nodes")
    lw = log_mass - energy.beta * e
    top = lw.max()
    if not np.isfinite(top):
        raise ValueError("all quadrature terms underflowed in the normalization constant")
    log_z = float(top + np.log(np.exp(lw - top).sum()))
    return QuadratureNodes(axes, points, log_mass, area, e, log_z)


def node_blocks(n_rows: int, n_nodes: int):
    """Row slices of 0..n_rows whose (rows, n_nodes) float64 block fits in
    _BLOCK_BYTES, at least one row each.

    The rows are split into the fewest blocks of near-equal size, so no block
    is a short remainder: BLAS picks its kernel by matrix size, and a short
    block could round differently from the same rows in one block.
    """
    size = max(1, _BLOCK_BYTES // (8 * max(n_nodes, 1)))
    k = -(-n_rows // size)
    for i in range(k):
        yield slice(i * n_rows // k, (i + 1) * n_rows // k)


def grid_sample(grid: DensityGrid, rng: Rng, n: int) -> np.ndarray:
    """Sample cells by their mass, then jitter uniformly within each cell."""
    if abs(grid.total_mass() - 1.0) > 1e-3:
        raise ValueError(f"grid is not normalized (total mass {grid.total_mass():.6f})")
    flat = grid.masses().ravel()
    idx = rng.categorical(flat, n)
    iy, ix = np.divmod(idx, grid.nx)
    hx = (grid.x_max - grid.x_min) / grid.nx
    hy = (grid.y_max - grid.y_min) / grid.ny
    u = rng.uniform(-0.5, 0.5, (n, 2))
    x = grid.xs[ix] + u[:, 0] * hx
    y = grid.ys[iy] + u[:, 1] * hy
    return np.stack([x, y], axis=-1)


def grid_tv_distance(samples: np.ndarray, grid: DensityGrid, return_clipped: bool = False):
    """Total variation between the empirical cell histogram and the grid masses.

    Points outside the bounds are clipped to the nearest boundary cell; the
    clipped fraction is available via return_clipped.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(pts) == 0:
        raise ValueError("need at least one sample")
    iy, ix, clipped = grid.cell_index(pts)
    hist = np.zeros((grid.ny, grid.nx))
    np.add.at(hist, (iy, ix), 1.0)
    hist /= hist.sum()
    ref = grid.masses()
    ref = ref / ref.sum()
    tv = 0.5 * float(np.abs(hist - ref).sum())
    return (tv, clipped) if return_clipped else tv
