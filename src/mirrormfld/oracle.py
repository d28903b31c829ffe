"""Grid-based ground truth on the 2-simplex.

A ``SimplexGrid`` triangulates the simplex with d = 3 into R^2 congruent
cells (the standard up/down subdivision) and represents measures by one
weight per cell center.  Free energy, entropy, KL and the proximal Gibbs
map then become exact finite sums, and the minimizer of

    F(mu) + temperature * Ent(mu)

is computed as the damped fixed point of the proximal Gibbs map.  Entropy
is taken with respect to the 2-dimensional surface measure of the embedded
simplex (total area sqrt(3)/2), consistent with the reduced-coordinate
mirror map; cell volumes carry that normalization.

Higher-dimensional domains are deliberately not gridded -- node counts grow
geometrically -- and the network-risk objective has no grid oracle; both
are verified through particle statistics instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonConvergenceError, SupportViolationError

Array = np.ndarray


@dataclass(frozen=True)
class SimplexGrid:
    """Cell-centered triangulation of the open 2-simplex."""

    resolution: int
    margin: float
    nodes: Array            # (K, 3) ambient cell centers
    volumes: Array          # (K,) surface-measure cell areas (all equal)
    neighbors: Array        # (K, 4) node ids for x-/x+/y-/y+ same-orientation, -1 if absent

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def intrinsic(self) -> Array:
        return self.nodes[:, :2]


@dataclass(frozen=True)
class GridMeasure:
    """Probability weights over the nodes of a ``SimplexGrid``."""

    grid: SimplexGrid
    weights: Array

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.grid.n_nodes,):
            raise ValueError("weights must have one entry per grid node")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        total = float(np.sum(w))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "weights", w)

    @property
    def densities(self) -> Array:
        return self.weights / self.grid.volumes


def build_grid(resolution: int, margin: float = 1e-4) -> SimplexGrid:
    """Triangulate the simplex at the given resolution.

    Centroids of up cells sit at ((3i+1)/(3R), (3j+1)/(3R)) and of down
    cells at ((3i+2)/(3R), (3j+2)/(3R)); with margin < 1/(3R) every centroid
    clears the margin, so the grid always covers the full simplex with R^2
    equal cells of surface area sqrt(3)/(2 R^2).
    """
    r = int(resolution)
    if r < 8:
        raise ConfigError("grid resolution must be at least 8")
    if not 0.0 < margin < 1.0 / (3.0 * r):
        raise ConfigError("grid margin must lie in (0, 1/(3R))")

    lattice = {}
    coords = []
    for orient, offset, span in (("up", 1.0, r), ("down", 2.0, r - 1)):
        for i in range(span):
            for j in range(span - i):
                lattice[(orient, i, j)] = len(coords)
                coords.append(((3 * i + offset) / (3 * r), (3 * j + offset) / (3 * r)))
    intrinsic = np.asarray(coords)
    nodes = np.column_stack([intrinsic, 1.0 - intrinsic.sum(axis=1)])

    neighbors = np.full((len(coords), 4), -1, dtype=np.int64)
    for (orient, i, j), idx in lattice.items():
        for slot, (di, dj) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
            neighbors[idx, slot] = lattice.get((orient, i + di, j + dj), -1)

    volumes = np.full(len(coords), np.sqrt(3.0) / (2.0 * r * r))
    return SimplexGrid(resolution=r, margin=float(margin), nodes=nodes,
                       volumes=volumes, neighbors=neighbors)


def uniform_measure(grid: SimplexGrid) -> GridMeasure:
    return GridMeasure(grid, np.full(grid.n_nodes, 1.0 / grid.n_nodes))


def measure_from_weights(grid: SimplexGrid, weights) -> GridMeasure:
    w = np.asarray(weights, dtype=np.float64)
    return GridMeasure(grid, w / np.sum(w))


def _check_grid_objective(objective):
    if getattr(objective, "kind", None) == "mf-network-risk":
        raise ConfigError("the grid oracle does not support the network-risk objective")
    if objective.ambient_dim != 3:
        raise ConfigError("the grid oracle works on the 2-simplex (ambient dimension 3)")


def node_potential(grid: SimplexGrid, objective, mu: GridMeasure) -> Array:
    """First variation dF/dmu at every node, for the measure mu."""
    _check_grid_objective(objective)
    return objective.potential(objective.stats(grid.nodes, mu.weights))


def proximal_gibbs(grid: SimplexGrid, objective, mu: GridMeasure,
                   temperature: float) -> GridMeasure:
    """The Gibbs measure with node energies dF(mu)/dmu at temperature lambda."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    g = node_potential(grid, objective, mu)
    logits = -g / temperature
    logits -= np.max(logits)  # overflow-safe shift
    w = grid.volumes * np.exp(logits)
    return measure_from_weights(grid, w)


@dataclass(frozen=True)
class FixedPointResult:
    measure: GridMeasure
    residual: float
    iterations: int
    residual_history: tuple = field(repr=False, default=())


def optimality_residual(grid: SimplexGrid, objective, mu: GridMeasure,
                        temperature: float) -> float:
    """Sup deviation of lambda*log(density) + dF/dmu from its node median.

    Zero exactly at the discrete fixed point, so this measures convergence
    of the solve rather than quadrature error.
    """
    r = temperature * np.log(mu.densities) + node_potential(grid, objective, mu)
    return float(np.max(np.abs(r - np.median(r))))


def fixed_point_solve(grid: SimplexGrid, objective, temperature: float,
                      damping: float = 0.5, tol: float = 1e-8,
                      max_iter: int = 10_000) -> FixedPointResult:
    """Damped self-consistency iteration mu <- (1-tau) mu + tau gibbs(mu),
    started from the uniform measure.

    Stops when the sup relative density change drops below ``tol``.  Raises
    ``NonConvergenceError`` carrying the last residual when the budget runs
    out (a sign that the damping is too aggressive or the temperature too
    small for the grid).
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    mu = uniform_measure(grid)
    history = []
    for it in range(1, max_iter + 1):
        gibbs = proximal_gibbs(grid, objective, mu, temperature)
        new_w = (1.0 - damping) * mu.weights + damping * gibbs.weights
        change = float(np.max(np.abs(new_w - mu.weights) / mu.weights))
        mu = GridMeasure(grid, new_w)
        history.append(optimality_residual(grid, objective, mu, temperature))
        if change < tol:
            return FixedPointResult(mu, history[-1], it, tuple(history))
    raise NonConvergenceError(
        f"fixed point not reached in {max_iter} iterations "
        f"(last residual {history[-1]:.3e})", residual=history[-1])


@dataclass(frozen=True)
class GridFunctionals:
    value: float          # F(mu)
    entropy: float        # Ent(mu) w.r.t. the surface measure
    free_energy: float    # F + temperature * Ent
    mean: Array
    covariance: Array


def grid_functionals(grid: SimplexGrid, objective, mu: GridMeasure,
                     temperature: float) -> GridFunctionals:
    _check_grid_objective(objective)
    w = mu.weights
    value = objective.value(objective.stats(grid.nodes, w))
    pos = w > 0
    entropy = float(w[pos] @ np.log(w[pos] / grid.volumes[pos]))
    mean = w @ grid.nodes
    centered = grid.nodes - mean
    cov = (w[:, None] * centered).T @ centered
    return GridFunctionals(value=value, entropy=entropy,
                           free_energy=value + temperature * entropy,
                           mean=mean, covariance=cov)


def kl_divergence(mu: GridMeasure, nu: GridMeasure) -> float:
    if mu.grid is not nu.grid:
        raise ValueError("measures must share a grid")
    wm, wn = mu.weights, nu.weights
    pos = wm > 0
    if np.any(wn[pos] == 0):
        raise SupportViolationError("mu puts weight where nu vanishes")
    return float(wm[pos] @ np.log(wm[pos] / wn[pos]))


def _stencil_gradient(grid: SimplexGrid, values: Array) -> Array:
    """Per-node intrinsic gradient by same-orientation neighbor differences."""
    r = float(grid.resolution)
    grad = np.zeros((grid.n_nodes, 2))
    ids = np.arange(grid.n_nodes)
    for axis, (m_slot, p_slot) in enumerate(((0, 1), (2, 3))):
        minus = grid.neighbors[:, m_slot]
        plus = grid.neighbors[:, p_slot]
        both = (minus >= 0) & (plus >= 0)
        only_p = (minus < 0) & (plus >= 0)
        only_m = (minus >= 0) & (plus < 0)
        grad[both, axis] = (values[plus[both]] - values[minus[both]]) * r / 2.0
        grad[only_p, axis] = (values[plus[only_p]] - values[ids[only_p]]) * r
        grad[only_m, axis] = (values[ids[only_m]] - values[minus[only_m]]) * r
    return grad


def relative_fisher_information(mu: GridMeasure, nu: GridMeasure) -> float:
    """Mirror-metric Fisher information of mu relative to nu.

    Gradients g of the log ratio are nearest-neighbor stencil estimates and
    the metric weight is the inverse Hessian diag(x) - x x^T of the entropy
    barrier, applied in closed form as sum_c x_c g_c^2 - (x . g)^2, so this
    is a diagnostic with loose (percent-level) accuracy.
    """
    grid = mu.grid
    if grid is not nu.grid:
        raise ValueError("measures must share a grid")
    wm, wn = mu.weights, nu.weights
    pos = wm > 0
    if np.any(wn[pos] == 0):
        raise SupportViolationError("mu puts weight where nu vanishes")
    with np.errstate(divide="ignore"):
        log_ratio = np.where(wm > 0, np.log(np.where(wm > 0, wm, 1.0)) - np.log(wn), -np.inf)
    grad = _stencil_gradient(grid, log_ratio)
    x = grid.intrinsic
    quad = np.sum(x * grad * grad, axis=1) - np.sum(x * grad, axis=1) ** 2
    return float(np.sum(wm[pos] * quad[pos]))


@dataclass(frozen=True)
class SandwichResult:
    lower: float     # temperature * KL(mu || mu_star)
    middle: float    # free-energy gap
    upper: float     # temperature * KL(mu || proximal gibbs of mu)
    passed: bool


def entropy_sandwich_check(grid: SimplexGrid, objective, temperature: float,
                           mu: GridMeasure, solution: GridMeasure) -> SandwichResult:
    """Check lambda*KL(mu||mu*) <= L(mu) - L(mu*) <= lambda*KL(mu||mu_hat).

    ``solution`` is the fixed-point minimizer mu*, from ``fixed_point_solve``.
    The tolerance is ``1e-3 * max(1, |middle|)``, absorbing fixed-point
    residual and roundoff; the inequality itself is exact on the grid.
    """
    lower = temperature * kl_divergence(mu, solution)
    middle = (grid_functionals(grid, objective, mu, temperature).free_energy
              - grid_functionals(grid, objective, solution, temperature).free_energy)
    gibbs = proximal_gibbs(grid, objective, mu, temperature)
    upper = temperature * kl_divergence(mu, gibbs)
    tol = 1e-3 * max(1.0, abs(middle))
    passed = (lower <= middle + tol) and (middle <= upper + tol)
    return SandwichResult(lower=lower, middle=middle, upper=upper, passed=bool(passed))


def export_solution(grid: SimplexGrid, objective, temperature: float,
                    result: FixedPointResult) -> dict:
    """JSON-ready summary of a fixed-point solve for cross-run comparison."""
    fun = grid_functionals(grid, objective, result.measure, temperature)
    return {
        "resolution": grid.resolution,
        "margin": grid.margin,
        "temperature": temperature,
        "objective": getattr(objective, "kind", "unknown"),
        "residual": result.residual,
        "iterations": result.iterations,
        "value": fun.value,
        "entropy": fun.entropy,
        "free_energy": fun.free_energy,
        "mean": fun.mean.tolist(),
        "covariance": fun.covariance.tolist(),
        "weights": result.measure.weights.tolist(),
    }
