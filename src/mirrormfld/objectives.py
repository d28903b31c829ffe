"""Mean-field objectives with value and first-variation oracles.

Each objective is a functional F on probability measures, evaluated here on
weighted point clouds (an ensemble is the equal-weight case, a grid measure
the general one).  Ambient coordinates are used throughout: the simplex
objectives see all d = m + 1 coordinates, the box objectives see the raw
parameter vector.  The dynamics converts to intrinsic coordinates through
the mirror map's pullback.

The common surface, duck-typed across the three kinds, runs through one
``Evaluation`` record per weighted cloud:

``stats(ambient, weights=None)``
    Evaluate the cloud once: its sufficient statistics plus the per-point
    intermediates that the value and the gradient share (the network's tanh
    activations), after one positivity scan where the objective needs
    strictly positive coordinates.  Returns the ``Evaluation``.
``value(record)``
    F of the weighted empirical measure.
``potential(record)``
    The first variation dF/dmu as a scalar per point of the record, up to
    its additive constant.
``potential_grad(record)``
    Ambient gradient of the first variation per point of the record; the
    per-particle drift up to the mirror pullback.  Always a new (N, d)
    array, which the mirror step turns into the drift in place.

Layout: records hold the row-major (N, d) points of the ensemble.  An
elementwise pass along their short rows runs its inner loop d elements
wide, so a per-particle gradient is built coordinate-first, as a C-ordered
(d, N) array written through ``out=`` (a ufunc on a transposed view would
allocate in the view's order), and returned transposed; the mirror step's
pullback then reads contiguous rows.  Each such rewrite keeps the
elementwise arithmetic of the row-major form, so its bits are unchanged.
The positivity scan is one whole-array ``np.min``, and a NaN minimum fails
it.

Records come only from ``stats`` and from their ``rows`` slices (a sampler
chunk reads ``record.rows(lo, hi)``).  ``first_variation_grad`` evaluates
the frozen first variation at other points by giving them their own record
with the cloud's statistic swapped in.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DomainViolationError
from .geometry import coordinate_sum

Array = np.ndarray


def _weights(n, weights):
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},)")
    return w


def _require_positive(ambient, what):
    # one pass; the negated test also catches a NaN minimum, where <= is False
    least = np.min(ambient)
    if not least > 0.0:
        found = "non-finite" if np.isnan(least) else "non-positive"
        raise DomainViolationError(f"{what} requires strictly positive coordinates "
                                   f"(got a {found} coordinate)")


@dataclass(frozen=True)
class Evaluation:
    """One objective's evaluation of a weighted point cloud.

    ``weights`` is ``None`` for equal weights (an ensemble), so a memoised
    record holds no (N,) weight array.  ``stats`` is the objective's
    statistic of the whole cloud; ``per_point`` holds per-row intermediates
    shared by the value and the gradient, or ``None``.  Built by the
    objective's ``stats``.
    """

    ambient: Array
    weights: Array | None
    stats: object
    per_point: Array | None = None

    @property
    def weight_vector(self) -> Array:
        return _weights(self.ambient.shape[0], self.weights)

    def rows(self, lo: int, hi: int) -> Evaluation:
        """Rows lo:hi of the record, for per-point reads such as a chunk's
        gradient; the statistic stays the whole cloud's."""
        return Evaluation(self.ambient[lo:hi],
                          None if self.weights is None else self.weights[lo:hi], self.stats,
                          None if self.per_point is None else self.per_point[lo:hi])


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
        object.__setattr__(self, "_off", self._coef == 0.0)

    @property
    def ambient_dim(self) -> int:
        return len(self.alpha)

    def _scan(self, ambient: Array) -> None:
        if np.any(self._coef != 0.0):
            _require_positive(ambient, "linear potential")

    def stats(self, ambient: Array, weights=None) -> Evaluation:
        """No statistic: F is linear in mu."""
        self._scan(ambient)
        return Evaluation(ambient, weights, None)

    def potential(self, record: Evaluation) -> Array:
        # switched-off coordinates may be anything, even outside the simplex
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(record.ambient)
        logs[:, self._off] = 0.0
        return -logs @ self._coef

    def value(self, record: Evaluation) -> float:
        return float(record.weight_vector @ self.potential(record))

    def potential_grad(self, record: Evaluation) -> Array:
        """The (N, d) gradient, built coordinate-first and returned transposed,
        so that the mirror step's pullback reads contiguous rows."""
        ambient = record.ambient
        grad = np.empty(ambient.shape[::-1])
        # switched-off coordinates may be zero: their rows are overwritten
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(1.0, ambient.T, out=grad)
            grad *= -self._coef[:, None]
        grad[self._off] = -0.0      # -coef * 0.0, a signed zero
        return grad.T


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

    def _scan(self, ambient: Array) -> None:
        if self.beta > 0.0:
            _require_positive(ambient, "barrier term")

    def stats(self, ambient: Array, weights=None) -> Evaluation:
        """Statistic: the weighted ambient mean of the cloud."""
        self._scan(ambient)
        return Evaluation(ambient, weights, _weights(ambient.shape[0], weights) @ ambient)

    def value(self, record: Evaluation) -> float:
        diff = record.stats - self._q
        out = float(diff @ diff)
        if self.beta > 0.0:
            out -= self.beta * float(record.weight_vector
                                     @ coordinate_sum(np.log(record.ambient).T))
        return out

    def potential(self, record: Evaluation) -> Array:
        ambient = record.ambient
        g = 2.0 * ambient @ (record.stats - self._q)
        if self.beta > 0.0:
            g = g - self.beta * coordinate_sum(np.log(ambient).T)
        return g

    def potential_grad(self, record: Evaluation) -> Array:
        """The (N, d) gradient 2 (mean - q) - beta / x, built coordinate-first
        and returned transposed, as in ``LinearPotential``."""
        ambient = record.ambient
        shift = 2.0 * (record.stats - self._q)
        grad = np.empty(ambient.shape[::-1])
        if self.beta > 0.0:
            np.divide(self.beta, ambient.T, out=grad)
            np.subtract(shift[:, None], grad, out=grad)
        else:
            grad[...] = shift[:, None]
        return grad.T


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
        # in place: each fresh (N, n) temporary costs as much as the tanh
        z = ambient[..., :-1] @ self.features.T
        z += ambient[..., -1:]
        return np.tanh(z, out=z)

    def stats(self, ambient: Array, weights=None) -> Evaluation:
        """Statistic: the model predictions h_mu(z_j) for all j; per point:
        the activations."""
        w = _weights(ambient.shape[0], weights)
        act = self.neuron_outputs(ambient)
        return Evaluation(ambient, weights, w @ act, act)

    def value(self, record: Evaluation) -> float:
        resid = record.stats - self.labels
        return float(resid @ resid) / (2.0 * self.n_examples)

    def potential(self, record: Evaluation) -> Array:
        resid = (record.stats - self.labels) / self.n_examples
        return record.per_point @ resid

    def potential_grad(self, record: Evaluation) -> Array:
        act = record.per_point
        resid = (record.stats - self.labels) / self.n_examples
        # scale = (1 - act^2) * resid, (N, n), built in place as in neuron_outputs
        scale = act * act
        np.subtract(1.0, scale, out=scale)
        scale *= resid
        grad_w = scale @ self.features             # (N, p)
        grad_b = np.sum(scale, axis=-1, keepdims=True)
        del scale   # before the (N, p + 1) result is allocated
        return np.concatenate([grad_w, grad_b], axis=-1)


def load_dataset(path) -> tuple[Array, Array]:
    """Read an (n, p+1) CSV of feature columns followed by a label column.

    A non-numeric first row is treated as a header and skipped.  Every other
    fault raises ``ValueError`` naming the file and the row, both counted
    from 1 as in the file: a non-numeric or non-finite cell (with its
    column), a row of fewer than two cells or of another width than the
    first data row, and a file with no data row.
    """
    rows, header = [], None
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            where = f"dataset {path}: row {reader.line_num}"
            values = []
            for cell in row:
                try:
                    values.append(float(cell))
                except ValueError:
                    break
            if len(values) < len(row):
                if not rows and header is None:
                    header = reader.line_num
                    continue
                col = len(values)
                raise ValueError(f"{where}, column {col + 1}: non-numeric value "
                                 f"{row[col].strip()!r}")
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{where}, column {bad[0] + 1}: non-finite value "
                                 f"{row[bad[0]].strip()!r}")
            if rows and len(values) != len(rows[0]):
                raise ValueError(f"{where}: {len(values)} cells, but the first data row "
                                 f"has {len(rows[0])}")
            if len(values) < 2:
                raise ValueError(f"{where}: one cell, but a row needs at least one "
                                 "feature column and a label")
            rows.append(values)
    if not rows:
        after = "" if header is None else f" after the header at row {header}"
        raise ValueError(f"dataset {path}: no data rows{after}")
    data = np.asarray(rows)
    return data[:, :-1], data[:, -1]


def _embed_rows(mirror_map, points: Array) -> Array:
    """The (N, d) ambient rows of (N, m) intrinsic rows; the mirror map
    itself works coordinate-first."""
    return np.ascontiguousarray(mirror_map.embed(np.asarray(points, dtype=np.float64).T).T)


def objective_value(objective, points: Array, mirror_map) -> float:
    return objective.value(objective.stats(_embed_rows(mirror_map, points)))


def first_variation_grad(objective, x: Array, record: Evaluation, mirror_map) -> Array:
    """Intrinsic-coordinate gradient of the first variation at x.

    x may be a single intrinsic point (m,) or a stack (..., m); ``record``
    must be the evaluation of the ensemble that defines the empirical
    measure.  The points get their own record, scanned by ``stats``, with
    the ensemble's statistic swapped in.
    """
    at_x = objective.stats(_embed_rows(mirror_map, np.atleast_2d(x)))
    g = mirror_map.pullback(objective.potential_grad(replace(at_x, stats=record.stats)).T).T
    return g[0] if np.asarray(x).ndim == 1 else g.reshape(np.shape(x))


def lift_identity_check(objective, points: Array, mirror_map, i: int) -> float:
    """Verify N * d/dx^i F(mu_X) == grad dF/dmu (x^i) by central differences.

    Returns the max componentwise deviation between the two sides.  Test
    helper: the finite-difference side recomputes the whole lifted value,
    statistics included, at every probe of step 1e-5, so it is exact up
    to O(step^2).
    """
    step = 1e-5
    points = np.asarray(points, dtype=np.float64)
    n, m = points.shape
    ambient = _embed_rows(mirror_map, points)
    analytic = first_variation_grad(objective, points[i], objective.stats(ambient), mirror_map)
    fd = np.zeros(m)
    for c in range(m):
        for sign in (1.0, -1.0):
            probe = points.copy()
            probe[i, c] += sign * step
            fd[c] += sign * objective_value(objective, probe, mirror_map)
    fd *= n / (2.0 * step)
    return float(np.max(np.abs(fd - analytic)))
