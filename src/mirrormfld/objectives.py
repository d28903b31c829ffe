"""Mean-field objectives with value and first-variation oracles.

Each objective is a functional F on probability measures, evaluated here on
weighted point clouds (an ensemble is the equal-weight case, a grid measure
the general one).  Ambient coordinates are used throughout: the simplex
objectives see all d = m + 1 coordinates, the box objectives see the raw
parameter vector.  The dynamics converts to intrinsic coordinates through
the mirror map's pullback.

The common surface, duck-typed across the three kinds:

``stats(ambient, weights=None)``
    Sufficient statistics of the weighted cloud (recomputed from scratch
    each call; a single pass).
``value(ambient, stats, weights=None)``
    F of the weighted empirical measure.
``potential(ambient, stats)``
    The first variation dF/dmu as a scalar per point, up to its additive
    constant.
``potential_grad(ambient, stats)``
    Ambient gradient of the first variation per point; the per-particle
    drift up to the mirror pullback.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainViolationError

Array = np.ndarray


def _weights(n, weights):
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},)")
    return w


def _require_positive(ambient, what):
    if np.min(ambient) <= 0.0:
        raise DomainViolationError(f"{what} requires strictly positive coordinates")


@dataclass(frozen=True)
class LinearPotential:
    """Linear functional F(mu) = int f dmu with a product-of-powers potential.

    ``f(x) = -reference_temperature * sum_c (alpha_c - 1) log X_c``; run at
    temperature equal to ``reference_temperature`` on the simplex this makes
    the stationary law the Dirichlet(alpha) distribution, which the tests
    use as an exact target.  ``alpha_c = 1`` switches coordinate c off, so
    alpha = (1, ..., 1) is the zero potential.
    """

    alpha: tuple
    reference_temperature: float
    kind: str = field(default="linear-potential", init=False)

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.ndim != 1 or np.any(a <= 0):
            raise ValueError("alpha must be a vector of positive exponents")
        if self.reference_temperature <= 0:
            raise ValueError("reference_temperature must be positive")
        object.__setattr__(self, "alpha", tuple(a))
        object.__setattr__(self, "_coef", self.reference_temperature * (a - 1.0))

    @property
    def ambient_dim(self) -> int:
        return len(self.alpha)

    def stats(self, ambient: Array, weights=None):
        return None

    def potential(self, ambient: Array, stats=None) -> Array:
        if np.any(self._coef != 0.0):
            _require_positive(ambient, "linear potential")
        with np.errstate(divide="ignore"):
            logs = np.where(self._coef == 0.0, 0.0, np.log(ambient))
        return -logs @ self._coef

    def value(self, ambient: Array, stats=None, weights=None) -> float:
        w = _weights(ambient.shape[0], weights)
        return float(w @ self.potential(ambient))

    def potential_grad(self, ambient: Array, stats=None) -> Array:
        if np.any(self._coef != 0.0):
            _require_positive(ambient, "linear potential gradient")
        with np.errstate(divide="ignore"):
            inv = np.where(self._coef == 0.0, 0.0, 1.0 / ambient)
        return -self._coef * inv


@dataclass(frozen=True)
class MeanMatchBarrier:
    """Mean-matching score plus an optional boundary barrier.

    ``F(mu) = ||int X dmu - q||^2 + beta * int sum_c log(1/X_c) dmu``.
    The quadratic term is a convex composition of a linear statistic, the
    barrier is linear in mu, so F is linearly convex.  With beta = 0 the
    barrier term is skipped entirely and boundary points are tolerated.
    """

    target: tuple
    beta: float = 0.0
    kind: str = field(default="mean-match-barrier", init=False)

    def __post_init__(self):
        q = np.asarray(self.target, dtype=np.float64)
        if q.ndim != 1 or np.any(q <= 0) or abs(float(np.sum(q)) - 1.0) > 1e-9:
            raise ValueError("target must be a strictly interior simplex point")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        object.__setattr__(self, "target", tuple(q))
        object.__setattr__(self, "_q", q)

    @property
    def ambient_dim(self) -> int:
        return len(self.target)

    def stats(self, ambient: Array, weights=None) -> Array:
        """Weighted ambient mean of the cloud."""
        w = _weights(ambient.shape[0], weights)
        return w @ ambient

    def value(self, ambient: Array, stats: Array, weights=None) -> float:
        diff = stats - self._q
        out = float(diff @ diff)
        if self.beta > 0.0:
            _require_positive(ambient, "barrier term")
            w = _weights(ambient.shape[0], weights)
            out -= self.beta * float(w @ np.sum(np.log(ambient), axis=-1))
        return out

    def potential(self, ambient: Array, stats: Array) -> Array:
        g = 2.0 * ambient @ (stats - self._q)
        if self.beta > 0.0:
            _require_positive(ambient, "barrier term")
            g = g - self.beta * np.sum(np.log(ambient), axis=-1)
        return g

    def potential_grad(self, ambient: Array, stats: Array) -> Array:
        g = np.broadcast_to(2.0 * (stats - self._q), ambient.shape).copy()
        if self.beta > 0.0:
            _require_positive(ambient, "barrier gradient")
            g -= self.beta / ambient
        return g


@dataclass(frozen=True)
class NetworkRisk:
    """Empirical squared-error risk of an averaged tanh network.

    A particle x = (w, b) is one neuron ``h(x, z) = tanh(<w, z> + b)``; the
    model output is the ensemble average of neuron outputs.  Given data
    (z_j, y_j), ``F(mu) = (1/n) sum_j (h_mu(z_j) - y_j)^2 / 2``.  The tanh
    output is bounded by 1, so the second-moment radius of the model class
    is at most 1.  Only the squared loss is implemented.
    """

    features: Array
    labels: Array
    kind: str = field(default="mf-network-risk", init=False)

    def __post_init__(self):
        z = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if z.ndim != 2 or y.shape != (z.shape[0],):
            raise ValueError("features must be (n, p) with labels of length n")
        if z.shape[0] == 0:
            raise ValueError("dataset must be nonempty")
        object.__setattr__(self, "features", z)
        object.__setattr__(self, "labels", y)

    @property
    def ambient_dim(self) -> int:
        return self.features.shape[1] + 1

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    def neuron_outputs(self, ambient: Array) -> Array:
        """tanh activations, shape (N, n)."""
        return np.tanh(ambient[..., :-1] @ self.features.T + ambient[..., -1:])

    def stats(self, ambient: Array, weights=None) -> Array:
        """Model predictions h_mu(z_j) for all j."""
        w = _weights(ambient.shape[0], weights)
        return w @ self.neuron_outputs(ambient)

    def value(self, ambient: Array, stats: Array, weights=None) -> float:
        resid = stats - self.labels
        return float(resid @ resid) / (2.0 * self.n_examples)

    def potential(self, ambient: Array, stats: Array) -> Array:
        resid = (stats - self.labels) / self.n_examples
        return self.neuron_outputs(ambient) @ resid

    def potential_grad(self, ambient: Array, stats: Array) -> Array:
        act = self.neuron_outputs(ambient)
        resid = (stats - self.labels) / self.n_examples
        scale = (1.0 - act * act) * resid          # (N, n)
        grad_w = scale @ self.features             # (N, p)
        grad_b = np.sum(scale, axis=-1, keepdims=True)
        return np.concatenate([grad_w, grad_b], axis=-1)


MeanFieldObjective = LinearPotential | MeanMatchBarrier | NetworkRisk


def load_dataset(path) -> tuple[Array, Array]:
    """Read an (n, p+1) CSV of feature columns followed by a label column.

    A non-numeric first row is treated as a header and skipped.  A
    non-finite cell (nan, inf) raises ``ValueError`` naming the file, the
    row and the column, both counted from 1 as in the file.
    """
    rows = []
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                if rows:
                    raise
                continue
            bad = np.flatnonzero(~np.isfinite(rows[-1]))
            if bad.size:
                raise ValueError(f"dataset {path}: row {reader.line_num}, column "
                                 f"{bad[0] + 1}: non-finite value {row[bad[0]].strip()!r}")
    data = np.asarray(rows, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError(f"dataset {path} must have at least one feature column and a label")
    return data[:, :-1], data[:, -1]


def ensemble_stats(objective, points: Array, mirror_map):
    """Statistics of an intrinsic-coordinate ensemble (embeds first)."""
    return objective.stats(mirror_map.embed(points))


def objective_value(objective, points: Array, mirror_map) -> float:
    ambient = mirror_map.embed(points)
    return objective.value(ambient, objective.stats(ambient))


def first_variation_grad(objective, x: Array, stats, mirror_map) -> Array:
    """Intrinsic-coordinate gradient of the first variation at x.

    x may be a single intrinsic point (m,) or a stack (..., m); stats must
    be current for the ensemble that defines the empirical measure.
    """
    ambient = mirror_map.embed(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    g = mirror_map.pullback(objective.potential_grad(ambient, stats))
    return g[0] if np.asarray(x).ndim == 1 else g.reshape(np.shape(x))


def lift_identity_check(objective, points: Array, mirror_map, i: int,
                        step: float = 1e-5) -> float:
    """Verify N * d/dx^i F(mu_X) == grad dF/dmu (x^i) by central differences.

    Returns the max componentwise deviation between the two sides.  Test
    helper: the finite-difference side recomputes the whole lifted value,
    statistics included, at every probe, so it is exact up to O(step^2).
    """
    points = np.asarray(points, dtype=np.float64)
    n, m = points.shape
    ambient = mirror_map.embed(points)
    analytic = first_variation_grad(objective, points[i], objective.stats(ambient), mirror_map)
    fd = np.zeros(m)
    for c in range(m):
        for sign in (1.0, -1.0):
            probe = points.copy()
            probe[i, c] += sign * step
            fd[c] += sign * objective_value(objective, probe, mirror_map)
    fd *= n / (2.0 * step)
    return float(np.max(np.abs(fd - analytic)))
